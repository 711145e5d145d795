#include "exec/cost_model.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace qcap::engine {

namespace {

/// Fragments grouped by owning table, built once per catalog: the table id
/// of every fragment, each table's fragment ids in ascending order, and
/// each table's full size summed in that order.
struct TableIndex {
  explicit TableIndex(const FragmentCatalog& catalog) {
    const auto& fragments = catalog.fragments();
    std::unordered_map<std::string, uint32_t> ids;
    table_of.reserve(fragments.size());
    for (const Fragment& frag : fragments) {
      table_of.push_back(
          ids.try_emplace(frag.table, static_cast<uint32_t>(ids.size()))
              .first->second);
    }
    const size_t num_tables = ids.size();
    offsets.assign(num_tables + 1, 0);
    for (uint32_t t : table_of) ++offsets[t + 1];
    for (size_t t = 0; t < num_tables; ++t) offsets[t + 1] += offsets[t];
    members.resize(fragments.size());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t f = 0; f < fragments.size(); ++f) {
      members[cursor[table_of[f]]++] = static_cast<FragmentId>(f);
    }
    table_bytes.assign(num_tables, 0.0);
    for (size_t t = 0; t < num_tables; ++t) {
      for (uint32_t i = offsets[t]; i < offsets[t + 1]; ++i) {
        table_bytes[t] += fragments[members[i]].size_bytes;
      }
    }
  }

  std::vector<uint32_t> table_of;  // fragment -> table id
  std::vector<uint32_t> offsets;   // CSR: table t owns members[offsets[t]..)
  std::vector<FragmentId> members;
  std::vector<double> table_bytes;  // per table, ascending fragment order
};

/// Reusable buffers of ScanScale's several-table case.
struct ScanScratch {
  std::vector<uint32_t> tables;
  std::vector<FragmentId> ids;
};

/// Bytes a class touches at the classification granularity, relative to
/// touching its referenced tables in full. The full size is summed over the
/// referenced tables' fragments in ascending fragment id — the catalog
/// order — so it is the same double whichever tables are involved.
double ScanScale(const FragmentCatalog& catalog, const TableIndex& index,
                 const FragmentSet& fragments, ScanScratch* scratch) {
  const double fragment_bytes = catalog.SetBytes(fragments);
  double full_bytes = 0.0;
  if (!fragments.empty()) {
    const uint32_t first = index.table_of[fragments.front()];
    bool one_table = true;
    for (FragmentId f : fragments) one_table &= index.table_of[f] == first;
    if (one_table) {
      full_bytes = index.table_bytes[first];
    } else {
      // Several tables: merge their fragment ids into catalog order.
      std::vector<uint32_t>& tables = scratch->tables;
      std::vector<FragmentId>& ids = scratch->ids;
      tables.clear();
      for (FragmentId f : fragments) tables.push_back(index.table_of[f]);
      std::sort(tables.begin(), tables.end());
      tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
      ids.clear();
      for (uint32_t t : tables) {
        ids.insert(ids.end(), index.members.begin() + index.offsets[t],
                   index.members.begin() + index.offsets[t + 1]);
      }
      std::sort(ids.begin(), ids.end());
      for (FragmentId f : ids) full_bytes += catalog.Get(f).size_bytes;
    }
  }
  if (full_bytes <= 0.0) return 1.0;
  return std::min(1.0, fragment_bytes / full_bytes);
}

/// True iff \p c executes on column fragments (stitching overhead applies).
bool IsColumnClass(const FragmentCatalog& catalog, const QueryClass& c) {
  return !c.fragments.empty() &&
         catalog.Get(c.fragments.front()).kind == FragmentKind::kColumn;
}

}  // namespace

double CostModel::CachePenalty(double resident_bytes) const {
  if (resident_bytes > params_.memory_bytes && params_.memory_bytes > 0.0) {
    const double miss = 1.0 - params_.memory_bytes / resident_bytes;
    return 1.0 + (params_.max_cache_penalty - 1.0) * miss;
  }
  return 1.0;
}

double CostModel::Seconds(double mean_cost, double scan_scale, bool column,
                          double cache_penalty, double speed) const {
  double io = params_.io_fraction * scan_scale * cache_penalty;
  double cpu = 1.0 - params_.io_fraction;
  // Column-granular execution stitches vertical fragments back together.
  const double overhead = column ? params_.column_overhead : 1.0;
  return mean_cost * (io + cpu) * overhead / std::max(speed, 1e-9);
}

double CostModel::ServiceSeconds(const Classification& cls, const QueryClass& c,
                                 double resident_bytes, double speed) const {
  ScanScratch scratch;
  const double scan_scale =
      ScanScale(cls.catalog, TableIndex(cls.catalog), c.fragments, &scratch);
  return Seconds(c.mean_cost, scan_scale, IsColumnClass(cls.catalog, c),
                 CachePenalty(resident_bytes), speed);
}

std::vector<double> CostModel::ServiceMatrix(
    const Classification& cls, const Allocation& alloc,
    const std::vector<BackendSpec>& backends) const {
  const size_t n = backends.size();
  const size_t num_reads = cls.reads.size();
  const size_t num_classes = cls.NumClasses();
  auto class_at = [&](size_t i) -> const QueryClass& {
    return i < num_reads ? cls.reads[i] : cls.updates[i - num_reads];
  };

  // One fragment bitset per class, in one pool.
  const size_t num_fragments = cls.catalog.size();
  const size_t words = (num_fragments + 63) / 64;
  std::vector<uint64_t> class_words(num_classes * words, 0);
  auto class_bits = [&](size_t i) {
    return ConstBitSpan(class_words.data() + i * words, words, num_fragments);
  };
  for (size_t i = 0; i < num_classes; ++i) {
    BitSpan bits(class_words.data() + i * words, words, num_fragments);
    for (FragmentId f : class_at(i).fragments) bits.Set(f);
  }

  // Per backend: the cache penalty of its mixed runtime working set. The
  // least-pending-first scheduler can send any class the backend is
  // *capable* of (holds all data for), so eligibility rather than the
  // planned assignment determines what the backend's cache actually sees;
  // mixing counts those classes too.
  std::vector<double> penalty(n);
  DenseBitset working(num_fragments);
  for (size_t b = 0; b < n; ++b) {
    const ConstBitSpan held = alloc.RowBits(b);
    working.ClearAll();
    size_t classes_served = 0;
    for (size_t i = 0; i < num_classes; ++i) {
      const bool eligible = i < num_reads ? IsSubset(class_bits(i), held)
                                          : Intersects(class_bits(i), held);
      if (eligible) {
        ++classes_served;
        working.UnionWith(class_bits(i));
      }
    }
    // Ascending fragment id: the order SetBytes sums the sorted union in.
    double working_bytes = 0.0;
    working.ForEachSetBit([&](size_t f) {
      working_bytes += cls.catalog.Get(static_cast<FragmentId>(f)).size_bytes;
    });
    const double mixing =
        classes_served > 1
            ? 1.0 + params_.mixing_per_class *
                        static_cast<double>(classes_served - 1)
            : 1.0;
    penalty[b] = CachePenalty(working_bytes * mixing);
  }

  const TableIndex tables(cls.catalog);
  ScanScratch scratch;
  std::vector<double> out(num_classes * n);
  for (size_t i = 0; i < num_classes; ++i) {
    const QueryClass& c = class_at(i);
    const double scan_scale = ScanScale(cls.catalog, tables, c.fragments,
                                        &scratch);
    const bool column = IsColumnClass(cls.catalog, c);
    for (size_t b = 0; b < n; ++b) {
      const double speed =
          backends[b].relative_load * static_cast<double>(n);
      out[i * n + b] = Seconds(c.mean_cost, scan_scale, column, penalty[b],
                               speed);
    }
  }
  return out;
}

}  // namespace qcap::engine
