// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "query/table.h"

#include <stdexcept>
#include <utility>

namespace graphscape {

uint32_t Table::AddColumn(std::string name, std::vector<double> values) {
  if (values.size() != num_rows_)
    throw std::invalid_argument("Table column '" + name + "': expected " +
                                std::to_string(num_rows_) + " values, got " +
                                std::to_string(values.size()));
  column_names_.push_back(std::move(name));
  columns_.push_back(std::move(values));
  return static_cast<uint32_t>(columns_.size() - 1);
}

uint32_t Table::AddField(const VertexScalarField& field) {
  return AddColumn(field.Name(), field.Values());
}

void Table::SetLabels(std::vector<std::string> labels) {
  if (labels.size() != num_rows_)
    throw std::invalid_argument("Table labels: expected " +
                                std::to_string(num_rows_) + " entries, got " +
                                std::to_string(labels.size()));
  labels_ = std::move(labels);
}

uint32_t Table::FindColumn(const std::string& name) const {
  for (uint32_t c = 0; c < column_names_.size(); ++c)
    if (column_names_[c] == name) return c;
  return kNoColumn;
}

VertexScalarField ColumnAsField(const Table& table, uint32_t column) {
  return VertexScalarField(table.ColumnName(column), table.Column(column));
}

Table MakePlantGenusTable(size_t num_rows, Rng* rng) {
  struct GenusSpec {
    const char* label;
    double attr0_lo, attr0_hi;
  };
  // Attribute-0 bands: C sits > 2.5 away from both others, A-B only 0.6
  // apart — the separations Fig. 11's NN-graph readouts key on.
  static constexpr GenusSpec kGenera[3] = {{"genusA", 2.0, 3.2},
                                           {"genusB", 3.8, 5.0},
                                           {"genusC", 8.5, 9.5}};
  std::vector<double> attr0(num_rows), attr1(num_rows);
  std::vector<std::string> labels(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    const GenusSpec& genus = kGenera[row % 3];
    labels[row] = genus.label;
    attr0[row] = genus.attr0_lo +
                 (genus.attr0_hi - genus.attr0_lo) * rng->UniformDouble();
    attr1[row] = 4.0 + 2.0 * rng->UniformDouble();
  }
  Table table(num_rows);
  table.AddColumn("petal_length", std::move(attr0));
  table.AddColumn("sepal_width", std::move(attr1));
  table.SetLabels(std::move(labels));
  return table;
}

}  // namespace graphscape
