#include "nn/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "support/check.hpp"

namespace mfcp::nn {

namespace {

void write_matrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols() << '\n';
  os << std::setprecision(17);
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << m[i] << (i + 1 == m.size() ? '\n' : ' ');
  }
}

Matrix read_matrix(std::istream& is) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  MFCP_CHECK(static_cast<bool>(is >> rows >> cols),
             "corrupt checkpoint: missing matrix header");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    MFCP_CHECK(static_cast<bool>(is >> m[i]),
               "corrupt checkpoint: missing matrix values");
  }
  return m;
}

}  // namespace

void save_mlp(const std::string& path, Mlp& model) {
  std::ofstream f(path);
  MFCP_CHECK(f.good(), "cannot open checkpoint file for writing: " + path);
  save_mlp(f, model);
}

void save_mlp(std::ostream& os, Mlp& model) {
  const auto& layers = model.linear_layers();
  os << "mfcp-mlp 1\n" << layers.size() << '\n';
  for (Linear* lin : layers) {
    write_matrix(os, lin->weight().value());
    write_matrix(os, lin->bias().value());
  }
}

void load_mlp(const std::string& path, Mlp& model) {
  std::ifstream f(path);
  MFCP_CHECK(f.good(), "cannot open checkpoint file for reading: " + path);
  load_mlp(f, model);
}

void load_mlp(std::istream& is, Mlp& model) {
  std::string magic;
  int version = 0;
  MFCP_CHECK(static_cast<bool>(is >> magic >> version) &&
                 magic == "mfcp-mlp" && version == 1,
             "not an mfcp-mlp v1 checkpoint");
  std::size_t count = 0;
  MFCP_CHECK(static_cast<bool>(is >> count), "corrupt checkpoint header");
  const auto& layers = model.linear_layers();
  MFCP_CHECK(count == layers.size(),
             "checkpoint layer count does not match model architecture");
  for (Linear* lin : layers) {
    Matrix w = read_matrix(is);
    Matrix b = read_matrix(is);
    MFCP_CHECK(w.same_shape(lin->weight().value()),
               "checkpoint weight shape mismatch");
    MFCP_CHECK(b.same_shape(lin->bias().value()),
               "checkpoint bias shape mismatch");
    lin->weight().mutable_value() = std::move(w);
    lin->bias().mutable_value() = std::move(b);
  }
}

}  // namespace mfcp::nn
