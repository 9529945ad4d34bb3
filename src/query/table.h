// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Attribute tables over vertices (paper §III-D, Fig. 11): the rows of a
// SQL query result, one double column per registered attribute plus an
// optional string label per row. Rows double as vertex ids of the
// similarity graph query/nn_graph.h builds, which is what lets a query
// result flow into the terrain pipeline unchanged.

#ifndef GRAPHSCAPE_QUERY_TABLE_H_
#define GRAPHSCAPE_QUERY_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scalar/scalar_field.h"

namespace graphscape {

/// FindColumn's miss marker.
inline constexpr uint32_t kNoColumn = 0xffffffffu;

class Table {
 public:
  explicit Table(size_t num_rows) : num_rows_(num_rows) {}

  size_t NumRows() const { return num_rows_; }
  uint32_t NumColumns() const {
    return static_cast<uint32_t>(columns_.size());
  }

  /// Appends a column; `values` must have NumRows() entries (throws
  /// std::invalid_argument otherwise). Returns the new column's index.
  uint32_t AddColumn(std::string name, std::vector<double> values);

  /// AddColumn from a scalar field, keeping the field's name — how the
  /// registered per-vertex measures become queryable attributes.
  uint32_t AddField(const VertexScalarField& field);

  /// Row labels (genus names, product titles); empty string when unset.
  /// `labels` must have NumRows() entries.
  void SetLabels(std::vector<std::string> labels);

  double Value(size_t row, uint32_t column) const {
    return columns_[column][row];
  }
  const std::vector<double>& Column(uint32_t column) const {
    return columns_[column];
  }
  const std::string& ColumnName(uint32_t column) const {
    return column_names_[column];
  }
  const std::string& Label(size_t row) const {
    return labels_.empty() ? empty_label_ : labels_[row];
  }

  /// Index of the column named `name`, or kNoColumn.
  uint32_t FindColumn(const std::string& name) const;

 private:
  size_t num_rows_;
  std::vector<std::string> column_names_;
  std::vector<std::vector<double>> columns_;
  std::vector<std::string> labels_;
  std::string empty_label_;
};

/// One column as a vertex scalar field (row id == vertex id), named
/// after the column. Throws if the column holds NaN — scalar fields are
/// finite by contract.
VertexScalarField ColumnAsField(const Table& table, uint32_t column);

/// The Fig. 11 stand-in for the paper's plant query result: `num_rows`
/// rows over three genera (labels "genusA"/"genusB"/"genusC", assigned
/// round-robin) with two attribute columns. Attribute 0 separates the
/// genera (bands A [2.0, 3.2], B [3.8, 5.0], C [8.5, 9.5] — C's gap to
/// the others exceeds 2.5, A-B's does not); attribute 1 overlaps all
/// three in [4.0, 6.0]. Deterministic in (num_rows, *rng).
Table MakePlantGenusTable(size_t num_rows, Rng* rng);

}  // namespace graphscape

#endif  // GRAPHSCAPE_QUERY_TABLE_H_
