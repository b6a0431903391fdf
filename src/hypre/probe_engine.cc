#include "hypre/probe_engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "hypre/delta_engine.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "sqlparse/parser.h"

namespace hypre {
namespace core {

ScopedProbeStatsCollector::ScopedProbeStatsCollector(const ProbeEngine* engine,
                                                     ProbeStats* sink)
    : engine_(engine),
      sink_(sink),
      previous_(internal::ActiveProbeStatsSlot()) {
  internal::ActiveProbeStatsSlot() = sink;
}

ScopedProbeStatsCollector::~ScopedProbeStatsCollector() {
  internal::ActiveProbeStatsSlot() = previous_;
  if (engine_ != nullptr && sink_ != nullptr) {
    engine_->FoldProbeStats(*sink_);
  }
}

ProbeEngine::ProbeEngine(const reldb::Database* db, reldb::Query base_query,
                         std::string key_column)
    : db_(db),
      executor_(db),
      base_query_(std::move(base_query)),
      key_column_(std::move(key_column)),
      delta_(std::make_unique<DeltaEngine>(this, DeltaOptions{})) {}

ProbeEngine::~ProbeEngine() = default;

Result<uint64_t> ProbeEngine::ApplyRefreshLocked() {
  // Serialize against in-flight cache lookups: the delta pass rewrites the
  // leaf cache, count cache, and key order in place.
  std::unique_lock<std::shared_mutex> cache_lock(cache_mu_);
  return delta_->Refresh();
}

Result<uint64_t> ProbeEngine::Refresh() {
  // The span covers the epoch pin even when the journal is drained — a
  // traced request always shows where its version check happened.
  telemetry::TraceSpan span("delta", "refresh");
  std::lock_guard<std::mutex> lock(refresh_mu_);
  if (pin_count_ > 0) {
    // Readers hold the epoch: defer the journal suffix instead of resizing
    // bitmaps out from under their handles. The suffix applies when the
    // pins drain (next refresh-bearing entry point at pin count zero).
    refresh_deferred_ = true;
    num_deferred_refreshes_.fetch_add(1, std::memory_order_relaxed);
    delta_->NoteRefreshDeferred();
    HYPRE_TELEMETRY_STMT(
        telemetry::MetricsRegistry::Global()
            .GetCounter("hypre_delta_refresh_deferred_total", "delta",
                        "Refreshes deferred because readers pinned the epoch")
            ->Increment());
    return epoch_.load(std::memory_order_relaxed);
  }
  refresh_deferred_ = false;
  return ApplyRefreshLocked();
}

Result<uint64_t> ProbeEngine::RefreshBlocking() {
  std::unique_lock<std::mutex> lock(refresh_mu_);
  pins_cv_.wait(lock, [&] { return pin_count_ == 0; });
  refresh_deferred_ = false;
  return ApplyRefreshLocked();
}

Result<ProbeEngine::EpochPin> ProbeEngine::PinEpoch(bool refresh_first) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  // Only refresh-first pins drain the journal (possibly including a
  // previously deferred suffix): a refresh=false pin is a PURE reader and
  // must never touch base tables, or it would race a concurrent writer the
  // single-writer contract allows.
  if (refresh_first) {
    if (pin_count_ == 0) {
      refresh_deferred_ = false;
      HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, ApplyRefreshLocked());
      (void)epoch;
    } else {
      // Readers in flight: pin the live epoch instead of blocking behind
      // them; the journal suffix is deferred exactly like Refresh() above.
      refresh_deferred_ = true;
      num_deferred_refreshes_.fetch_add(1, std::memory_order_relaxed);
      delta_->NoteRefreshDeferred();
      HYPRE_TELEMETRY_STMT(
          telemetry::MetricsRegistry::Global()
              .GetCounter("hypre_delta_refresh_deferred_total", "delta",
                          "Refreshes deferred because readers pinned the "
                          "epoch")
              ->Increment());
    }
  }
  ++pin_count_;
  return EpochPin(this, epoch_.load(std::memory_order_relaxed));
}

void ProbeEngine::Unpin() const {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  --pin_count_;
  if (pin_count_ == 0) pins_cv_.notify_all();
}

void ProbeEngine::set_delta_options(const DeltaOptions& options) {
  delta_->set_options(options);
}

using reldb::CompareOp;
using reldb::ExprKind;

namespace {

/// Dense ids 0..n-1: every key is "changed" when the key order is built
/// from scratch.
std::vector<uint32_t> AllIds(size_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

/// Flips a comparison operator for the mirrored `literal op column` form.
CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // =, != are symmetric
  }
}

/// Collects the canonical keys of an n-ary chain, flattening nested nodes of
/// the same kind so `(a AND b) AND c` and `a AND (b AND c)` agree.
void CollectNaryKeys(const reldb::Expr& expr, ExprKind kind,
                     std::vector<std::string>* out) {
  if (expr.kind() == kind) {
    for (const auto& child :
         static_cast<const reldb::NaryExpr&>(expr).children()) {
      CollectNaryKeys(*child, kind, out);
    }
    return;
  }
  out->push_back(ProbeEngine::CanonicalKey(expr));
}

/// Collects the leaf-level subexpressions of `expr` (everything below the
/// AND/OR/NOT combinators — the nodes LeafBitmap would query one by one).
void CollectLeaves(const reldb::ExprPtr& expr,
                   std::vector<reldb::ExprPtr>* out) {
  switch (expr->kind()) {
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const auto& child :
           static_cast<const reldb::NaryExpr&>(*expr).children()) {
        CollectLeaves(child, out);
      }
      return;
    case ExprKind::kNot:
      CollectLeaves(static_cast<const reldb::NotExpr&>(*expr).child(), out);
      return;
    default:
      out->push_back(expr);
  }
}

}  // namespace

std::string ProbeEngine::CanonicalKey(const reldb::Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
      return expr.ToString();
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const reldb::CompareExpr&>(expr);
      const reldb::Expr* lhs = cmp.lhs().get();
      const reldb::Expr* rhs = cmp.rhs().get();
      CompareOp op = cmp.op();
      // Normalize `literal op column` to `column op' literal`.
      if (lhs->kind() == ExprKind::kLiteral &&
          rhs->kind() != ExprKind::kLiteral) {
        std::swap(lhs, rhs);
        op = MirrorOp(op);
      }
      return CanonicalKey(*lhs) + reldb::CompareOpToString(op) +
             CanonicalKey(*rhs);
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const reldb::BetweenExpr&>(expr);
      return CanonicalKey(*bt.column()) + " BETWEEN " + bt.lo().ToString() +
             " AND " + bt.hi().ToString();
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const reldb::InListExpr&>(expr);
      std::vector<reldb::Value> values = in.values();
      std::sort(values.begin(), values.end());
      std::string key = CanonicalKey(*in.column()) + " IN (";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) key += ",";
        key += values[i].ToString();
      }
      return key + ")";
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<std::string> keys;
      CollectNaryKeys(expr, expr.kind(), &keys);
      std::sort(keys.begin(), keys.end());
      std::string out = "(";
      const char* sep = expr.kind() == ExprKind::kAnd ? " AND " : " OR ";
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i > 0) out += sep;
        out += keys[i];
      }
      return out + ")";
    }
    case ExprKind::kNot:
      return "NOT(" +
             CanonicalKey(*static_cast<const reldb::NotExpr&>(expr).child()) +
             ")";
  }
  return expr.ToString();  // unreachable; keeps the compiler happy
}

Status ProbeEngine::EnsureUniverse() const {
  // Double-checked: the release store below publishes the interned state,
  // and after an epoch compaction the re-intern races are resolved by the
  // unique lock (one thread interns, the rest wait and see ready).
  if (universe_ready_.load(std::memory_order_acquire)) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  return EnsureUniverseLocked();
}

Status ProbeEngine::EnsureUniverseLocked() const {
  if (universe_ready_.load(std::memory_order_relaxed)) return Status::OK();
  // The fresh scan bakes in every mutation recorded so far; re-anchor the
  // delta cursor before scanning so Refresh only replays what comes after.
  delta_->OnUniverseInterned(db_->journal().sequence());
  HYPRE_RETURN_NOT_OK(
      executor_.InternDistinctValues(base_query_, key_column_, &dict_));
  universe_ = KeyBitmap(dict_.size(), /*all_set=*/true);
  MergeKeyOrder(AllIds(dict_.size()));
  universe_ready_.store(true, std::memory_order_release);
  return Status::OK();
}

void ProbeEngine::MergeKeyOrder(std::vector<uint32_t> changed) const {
  // Invariant: sorted_ids_ orders EVERY id by its dictionary value, live or
  // tombstoned. A tombstoned id keeps its stale value and rank; it never
  // surfaces because every probe result is masked by the live mask.
  auto less = [&](uint32_t a, uint32_t b) {
    return dict_.value(a).Compare(dict_.value(b)) < 0;
  };
  // Rebound ids leave their old rank; they re-enter at their new value.
  constexpr uint32_t kDropped = ~uint32_t{0};
  for (uint32_t id : changed) {
    if (id < rank_of_id_.size()) sorted_ids_[rank_of_id_[id]] = kDropped;
  }
  sorted_ids_.erase(
      std::remove(sorted_ids_.begin(), sorted_ids_.end(), kDropped),
      sorted_ids_.end());
  std::sort(changed.begin(), changed.end(), less);
  // Merge from the back, in place: each changed id lands after every
  // kept id that does not sort above it (found by binary search), and the
  // kept ids between two landing points move up in one block.
  size_t kept = sorted_ids_.size();
  sorted_ids_.resize(kept + changed.size());
  size_t out = sorted_ids_.size();
  auto begin = sorted_ids_.begin();
  for (size_t c = changed.size(); c-- > 0;) {
    size_t at = static_cast<size_t>(
        std::upper_bound(begin, begin + kept, changed[c], less) - begin);
    std::move_backward(begin + at, begin + kept, begin + out);
    out -= kept - at;
    sorted_ids_[--out] = changed[c];
    kept = at;
  }
  assert(sorted_ids_.size() == dict_.size());
  rank_of_id_.resize(sorted_ids_.size());
  for (uint32_t rank = 0; rank < sorted_ids_.size(); ++rank) {
    rank_of_id_[sorted_ids_[rank]] = rank;
  }
}

EngineSnapshotImage ProbeEngine::CaptureSnapshotImage() const {
  // A shared lock is enough: concurrent readers only ADD cache entries
  // (under the unique lock), never mutate the universe or existing leaves,
  // so the captured image is one consistent engine state.
  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  EngineSnapshotImage image;
  image.universe_ready = universe_ready_.load(std::memory_order_acquire);
  if (!image.universe_ready) return image;
  image.epoch = epoch_.load(std::memory_order_relaxed);
  image.journal_cursor = delta_->stats().journal_cursor;
  image.keys.reserve(dict_.size());
  for (uint32_t id = 0; id < dict_.size(); ++id) {
    image.keys.emplace_back(dict_.value(id), universe_.Test(id));
  }
  image.free_ids = free_ids_;
  image.leaves.reserve(leaf_cache_.size());
  // Stable output order: sort by cache key so identical states produce
  // byte-identical snapshots.
  std::vector<const std::pair<const std::string, LeafEntry>*> entries;
  entries.reserve(leaf_cache_.size());
  for (const auto& kv : leaf_cache_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* kv : entries) {
    EngineSnapshotImage::Leaf leaf;
    leaf.predicate_sql = kv->second.expr->ToString();
    const KeyBitmap& bits = *kv->second.bits;
    leaf.words.assign(bits.word_data(), bits.word_data() + bits.num_words());
    image.leaves.push_back(std::move(leaf));
  }
  return image;
}

Status ProbeEngine::RestoreSnapshotImage(const EngineSnapshotImage& image) {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  if (universe_ready_.load(std::memory_order_relaxed) || dict_.size() != 0) {
    return Status::InvalidArgument(
        "RestoreSnapshotImage requires a freshly constructed engine");
  }
  if (!image.universe_ready) return Status::OK();  // interns lazily later

  // Parse and validate everything BEFORE touching engine state, so a
  // corrupt image fails closed with the engine still pristine.
  size_t num_keys = image.keys.size();
  size_t words_per_leaf = (num_keys + KeyBitmap::kWordBits - 1) /
                          KeyBitmap::kWordBits;
  struct ParsedLeaf {
    reldb::ExprPtr expr;
    const EngineSnapshotImage::Leaf* src;
  };
  std::vector<ParsedLeaf> parsed;
  parsed.reserve(image.leaves.size());
  for (const EngineSnapshotImage::Leaf& leaf : image.leaves) {
    auto expr = sqlparse::ParsePredicate(leaf.predicate_sql);
    if (!expr.ok()) {
      return Status::Internal("snapshot leaf predicate '" +
                              leaf.predicate_sql +
                              "' failed to parse: " + expr.status().message());
    }
    if (leaf.words.size() != words_per_leaf) {
      return Status::Internal(StringFormat(
          "snapshot leaf '%s' carries %zu bitmap words, universe of %zu "
          "keys needs %zu",
          leaf.predicate_sql.c_str(), leaf.words.size(), num_keys,
          words_per_leaf));
    }
    parsed.push_back({std::move(expr).TakeValue(), &leaf});
  }
  for (uint32_t id : image.free_ids) {
    if (id >= num_keys) {
      return Status::Internal(StringFormat(
          "snapshot free id %u out of range (universe of %zu keys)",
          unsigned{id}, num_keys));
    }
  }

  size_t num_dead = 0;
  dict_.Reserve(num_keys);
  for (size_t id = 0; id < num_keys; ++id) {
    dict_.Restore(image.keys[id].first, image.keys[id].second);
    if (!image.keys[id].second) ++num_dead;
  }
  universe_ = KeyBitmap(num_keys);
  for (size_t id = 0; id < num_keys; ++id) {
    if (image.keys[id].second) universe_.Set(id);
  }
  num_tombstones_ = num_dead;
  free_ids_ = image.free_ids;
  epoch_ = image.epoch;
  leaf_cache_.clear();
  count_cache_.clear();
  for (ParsedLeaf& p : parsed) {
    auto bits = std::make_unique<KeyBitmap>(num_keys);
    std::copy(p.src->words.begin(), p.src->words.end(), bits->word_data());
    std::string key = CanonicalKey(*p.expr);
    leaf_cache_[key] = LeafEntry{std::move(p.expr), std::move(bits)};
  }
  MergeKeyOrder(AllIds(num_keys));
  universe_ready_.store(true, std::memory_order_release);
  delta_->OnSnapshotRestored(image.journal_cursor, image.epoch);
  return Status::OK();
}

Result<const KeyBitmap*> ProbeEngine::UniverseBitmap() const {
  HYPRE_RETURN_NOT_OK(EnsureUniverse());
  return &universe_;
}

Result<size_t> ProbeEngine::UniverseSize() const {
  HYPRE_RETURN_NOT_OK(EnsureUniverse());
  return dict_.size();
}

Result<const KeyBitmap*> ProbeEngine::LeafBitmap(
    const reldb::ExprPtr& expr) const {
  std::string key = CanonicalKey(*expr);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = leaf_cache_.find(key);
    // The raw pointer outlives the lock: entries are node-stable
    // (unique_ptr payload) and only erased at pin count zero.
    if (it != leaf_cache_.end()) return it->second.bits.get();
  }
  // Miss: upgrade to the unique lock and re-check (another thread may have
  // materialized the leaf in the window). The DB query runs UNDER the
  // unique lock — cold path only — which keeps the one-query-per-distinct-
  // leaf statistics contract exact under racing misses.
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  auto it = leaf_cache_.find(key);
  if (it != leaf_cache_.end()) return it->second.bits.get();
  // Cache MISSES get a span (each one runs a relational query); hits are
  // visible as the stats ratio instead — noting every hit would flood the
  // bounded trace buffer from the probe hot path.
  telemetry::TraceSpan span("engine", "leaf_query");
  NoteLeafQueries(1);
  reldb::Query query = base_query_;
  query.where = query.where ? reldb::MakeAnd(query.where, expr) : expr;
  auto bits = std::make_unique<KeyBitmap>(dict_.size());
  HYPRE_RETURN_NOT_OK(executor_.ForEachDenseId(
      query, key_column_, dict_, [&](uint32_t id) { bits->Set(id); }));
  const KeyBitmap* ptr = bits.get();
  leaf_cache_.emplace(std::move(key), LeafEntry{expr, std::move(bits)});
  return ptr;
}

Status ProbeEngine::PrefetchLeaves(
    const std::vector<reldb::ExprPtr>& exprs) const {
  telemetry::TraceSpan span("engine", "prefetch_leaves");
  HYPRE_RETURN_NOT_OK(EnsureUniverse());
  std::vector<reldb::ExprPtr> leaves;
  for (const auto& expr : exprs) {
    if (expr) CollectLeaves(expr, &leaves);
  }
  // Keep only leaves that are neither cached nor already pending.
  std::vector<reldb::ExprPtr> pending;
  std::vector<std::string> pending_keys;
  auto collect_pending = [&] {
    pending.clear();
    pending_keys.clear();
    std::unordered_set<std::string> queued;
    for (const auto& leaf : leaves) {
      std::string key = CanonicalKey(*leaf);
      if (leaf_cache_.count(key) > 0 || !queued.insert(key).second) continue;
      pending.push_back(leaf);
      pending_keys.push_back(std::move(key));
    }
  };
  {
    // Warm path: everything cached already — one shared lock, no DB work.
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    collect_pending();
    if (pending.empty()) return Status::OK();
  }
  // Cold path: re-derive the pending set under the unique lock (a racing
  // prefetch may have landed some of these) and run the bulk pass while
  // holding it, so each leaf is queried exactly once engine-wide.
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  collect_pending();
  if (pending.empty()) return Status::OK();

  std::vector<std::unique_ptr<KeyBitmap>> bitmaps;
  bitmaps.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    bitmaps.push_back(std::make_unique<KeyBitmap>(dict_.size()));
  }
  HYPRE_RETURN_NOT_OK(executor_.ForEachDenseIdMulti(
      base_query_, key_column_, dict_, pending,
      [&](size_t p, uint32_t id) { bitmaps[p]->Set(id); }));
  // One leaf query per distinct leaf, even though the bulk pass ran the base
  // query only once (the statistics contract in the header).
  NoteLeafQueries(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    leaf_cache_.emplace(std::move(pending_keys[i]),
                        LeafEntry{pending[i], std::move(bitmaps[i])});
  }
  return Status::OK();
}

Result<KeyBitmap> ProbeEngine::Eval(const reldb::ExprPtr& expr) const {
  switch (expr->kind()) {
    case ExprKind::kAnd: {
      const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
      bool first = true;
      KeyBitmap acc;
      for (const auto& child : nary.children()) {
        HYPRE_ASSIGN_OR_RETURN(KeyBitmap child_bits, Eval(child));
        if (first) {
          acc = std::move(child_bits);
          first = false;
        } else {
          acc.AndWith(child_bits);
        }
        if (acc.None()) break;  // short-circuit
      }
      return acc;
    }
    case ExprKind::kOr: {
      const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
      KeyBitmap acc(dict_.size());
      for (const auto& child : nary.children()) {
        HYPRE_ASSIGN_OR_RETURN(KeyBitmap child_bits, Eval(child));
        acc.OrWith(child_bits);
      }
      return acc;
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const reldb::NotExpr&>(*expr);
      HYPRE_ASSIGN_OR_RETURN(KeyBitmap child_bits, Eval(n.child()));
      child_bits.FlipAll();  // complement against the key universe
      // The flip resurrects tombstoned ids; mask them back out.
      if (num_tombstones_ > 0) child_bits.AndWith(universe_);
      return child_bits;
    }
    default: {
      HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* leaf, LeafBitmap(expr));
      KeyBitmap bits = *leaf;
      // Cached leaves may carry stale bits at tombstoned ids (scrubbed only
      // on recycle or compaction); the live mask hides them.
      if (num_tombstones_ > 0) bits.AndWith(universe_);
      return bits;
    }
  }
}

Result<KeyBitmap> ProbeEngine::EvalBitmap(
    const reldb::ExprPtr& predicate) const {
  HYPRE_RETURN_NOT_OK(EnsureUniverse());
  if (!predicate) return universe_;
  return Eval(predicate);
}

Result<const KeyBitmap*> ProbeEngine::UnmaskedLeafBitmap(
    const reldb::ExprPtr& expr) const {
  if (!expr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      return nullptr;
    default:
      HYPRE_RETURN_NOT_OK(EnsureUniverse());
      return LeafBitmap(expr);
  }
}

reldb::Query ProbeEngine::Enhance(const reldb::ExprPtr& predicate) const {
  reldb::Query query = base_query_;
  if (query.where && predicate) {
    query.where = reldb::MakeAnd(query.where, predicate);
  } else if (predicate) {
    query.where = predicate;
  }
  return query;
}

Result<size_t> ProbeEngine::CountMatching(
    const reldb::ExprPtr& predicate) const {
  std::string key = predicate ? CanonicalKey(*predicate) : "";
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = count_cache_.find(key);
    if (it != count_cache_.end()) {
      NoteProbesAnswered(1);
      return it->second;
    }
  }
  // Eval takes its own locks per leaf; never hold cache_mu_ across it.
  HYPRE_ASSIGN_OR_RETURN(KeyBitmap bits, EvalBitmap(predicate));
  size_t count = bits.Count();
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  // try_emplace: a racing thread may have memoized the same (deterministic)
  // count in the window — first writer wins, both answers agree.
  count_cache_.try_emplace(std::move(key), count);
  return count;
}

std::vector<reldb::Value> ProbeEngine::KeysOf(const KeyBitmap& bits) const {
  // The bitmap must come from this engine: its bits are dense key ids.
  // Smaller bitmaps are fine — ids are stable under tail growth, and the
  // empty-combination degenerate is a 0-bit bitmap — but a LARGER one can
  // only be foreign (or predate an epoch compaction that shrank the id
  // space), so its ids would name the wrong keys.
  assert(bits.num_bits() <= dict_.size());
  // Collect the set ids, then order them by their precomputed rank in the
  // Value total order — O(count log count) instead of a full universe scan
  // per call (KeysOf sits in the Top-K record-walk hot loop). Bits past the
  // universe (foreign bitmaps) are ignored, as the old scan did.
  std::vector<uint32_t> ranks;
  bits.ForEachSet([&](uint32_t id) {
    if (id < rank_of_id_.size()) ranks.push_back(rank_of_id_[id]);
  });
  std::sort(ranks.begin(), ranks.end());
  std::vector<reldb::Value> out;
  out.reserve(ranks.size());
  for (uint32_t rank : ranks) out.push_back(dict_.value(sorted_ids_[rank]));
  return out;
}

Result<std::vector<reldb::Value>> ProbeEngine::MatchingKeys(
    const reldb::ExprPtr& predicate) const {
  HYPRE_ASSIGN_OR_RETURN(KeyBitmap bits, EvalBitmap(predicate));
  return KeysOf(bits);
}

}  // namespace core
}  // namespace hypre
