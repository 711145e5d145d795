#include "exec/cost_model.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

TEST(CatalogTest, TableAndColumnBytes) {
  engine::Catalog catalog = workloads::TpchCatalog(1.0);
  auto lineitem = catalog.TableBytes("lineitem");
  ASSERT_TRUE(lineitem.ok());
  // 6M rows x ~140 B/row: several hundred MB.
  EXPECT_GT(lineitem.value(), 5e8);
  auto col = catalog.ColumnBytes("lineitem", "l_quantity");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col.value(), 6000000.0 * 8.0);
  EXPECT_FALSE(catalog.TableBytes("ghost").ok());
  EXPECT_FALSE(catalog.ColumnBytes("lineitem", "ghost").ok());
}

TEST(CatalogTest, ScaleFactorScalesLinearly) {
  engine::Catalog sf1 = workloads::TpchCatalog(1.0);
  engine::Catalog sf10 = workloads::TpchCatalog(10.0);
  EXPECT_NEAR(sf10.TotalBytes(), 10.0 * sf1.TotalBytes(), 1.0);
}

TEST(CatalogTest, RejectsDuplicatesAndEmpty) {
  engine::Catalog catalog;
  engine::TableDef t{"t", {{"c", engine::ColumnType::kInt32, 0, true}}, 10};
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_FALSE(catalog.AddTable(t).ok());
  engine::TableDef empty{"e", {}, 10};
  EXPECT_FALSE(catalog.AddTable(empty).ok());
}

TEST(TypesTest, Widths) {
  using engine::ColumnType;
  using engine::TypeWidth;
  EXPECT_EQ(TypeWidth(ColumnType::kInt32, 0), 4u);
  EXPECT_EQ(TypeWidth(ColumnType::kInt64, 0), 8u);
  EXPECT_EQ(TypeWidth(ColumnType::kDecimal, 0), 8u);
  EXPECT_EQ(TypeWidth(ColumnType::kDate, 0), 4u);
  EXPECT_EQ(TypeWidth(ColumnType::kChar, 17), 17u);
  EXPECT_EQ(TypeWidth(ColumnType::kVarchar, 55), 55u);
}

TEST(TypesTest, Names) {
  using engine::ColumnType;
  using engine::TypeName;
  EXPECT_EQ(TypeName(ColumnType::kInt32, 0), "int32");
  EXPECT_EQ(TypeName(ColumnType::kVarchar, 55), "varchar(55)");
}

TEST(CostModelTest, CachePenaltyGrowsWithResidentBytes) {
  engine::CostModelParams params;
  params.memory_bytes = 1000.0;
  engine::CostModel model(params);
  const Classification cls = testutil::Figure2Classification();
  const QueryClass& c = cls.reads[0];
  const double fits = model.ServiceSeconds(cls, c, 500.0, 1.0);
  const double spills = model.ServiceSeconds(cls, c, 4000.0, 1.0);
  EXPECT_GT(spills, fits);
  // Bounded by the max penalty.
  const double huge = model.ServiceSeconds(cls, c, 1e15, 1.0);
  EXPECT_LE(huge, fits * params.max_cache_penalty + 1e-12);
}

TEST(CostModelTest, FasterBackendIsFaster) {
  engine::CostModel model;
  const Classification cls = testutil::Figure2Classification();
  const QueryClass& c = cls.reads[0];
  EXPECT_LT(model.ServiceSeconds(cls, c, 0.0, 2.0),
            model.ServiceSeconds(cls, c, 0.0, 1.0));
}

TEST(CostModelTest, ColumnGranularityReducesServiceTime) {
  // Classify one TPC-H query at table vs column granularity: the column
  // variant touches fewer bytes, so its service time must be smaller.
  engine::Catalog catalog = workloads::TpchCatalog(1.0);
  QueryJournal journal;
  journal.Record(workloads::TpchQueries()[0], 100);  // Q1: lineitem subset.

  Classifier table_cls(catalog, {Granularity::kTable, 4, true});
  Classifier column_cls(catalog, {Granularity::kColumn, 4, true});
  auto table_result = table_cls.Classify(journal);
  auto column_result = column_cls.Classify(journal);
  ASSERT_TRUE(table_result.ok());
  ASSERT_TRUE(column_result.ok());

  engine::CostModel model;
  const double t_table = model.ServiceSeconds(
      table_result.value(), table_result->reads[0], 0.0, 1.0);
  const double t_column = model.ServiceSeconds(
      column_result.value(), column_result->reads[0], 0.0, 1.0);
  EXPECT_LT(t_column, t_table);
}

TEST(CostModelTest, ServiceMatrixShape) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(3);
  Allocation a(3, 3, 4, 3);
  for (size_t b = 0; b < 3; ++b) a.PlaceSet(b, {0, 1, 2});
  engine::CostModel model;
  const auto matrix = model.ServiceMatrix(cls, a, backends);
  ASSERT_EQ(matrix.size(), 7u * 3u);  // Row-major: 7 classes x 3 backends.
  for (double v : matrix) EXPECT_GT(v, 0.0);
}

TEST(CostModelTest, MeanCostScalesServiceTime) {
  const Classification cls = testutil::Figure2Classification();
  engine::CostModel model;
  QueryClass cheap = cls.reads[0];
  cheap.mean_cost = 1.0;
  QueryClass pricey = cls.reads[0];
  pricey.mean_cost = 10.0;
  EXPECT_NEAR(model.ServiceSeconds(cls, pricey, 0.0, 1.0),
              10.0 * model.ServiceSeconds(cls, cheap, 0.0, 1.0), 1e-12);
}

}  // namespace
}  // namespace qcap
