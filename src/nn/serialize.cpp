#include "nn/serialize.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/check.hpp"

namespace mfcp::nn {

namespace {

// The longest value `write_matrix` prints ("-d.dddddddddddddddde-308",
// 24 characters) plus its separator, rounded up.
constexpr std::ptrdiff_t kMaxValueChars = 32;

/// Writes "rows cols\n", then the values on one line, each as %.17g
/// (what operator<< prints at precision 17, so the bytes are unchanged).
/// A matrix without values writes no value line. The text goes out
/// through a fixed stack buffer.
void write_matrix(std::ostream& os, const Matrix& m) {
  std::array<char, 4096> buf;
  // Each number is formatted before this, leaving room for its separator.
  char* const last = buf.data() + buf.size() - 1;
  char* p = std::to_chars(buf.data(), last, m.rows()).ptr;
  *p++ = ' ';
  p = std::to_chars(p, last, m.cols()).ptr;
  *p++ = '\n';
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (last - p < kMaxValueChars) {
      os.write(buf.data(), p - buf.data());
      p = buf.data();
    }
    p = std::to_chars(p, last, m[i], std::chars_format::general, 17).ptr;
    *p++ = i + 1 == m.size() ? '\n' : ' ';
  }
  os.write(buf.data(), p - buf.data());
}

/// Reads one matrix that must have `like`'s shape. The header is checked
/// before anything is allocated; the value line must hold exactly
/// rows * cols values, one space apart, as `write_matrix` writes them.
Matrix read_matrix(std::istream& is, const Matrix& like, std::string& line) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  MFCP_CHECK(static_cast<bool>(is >> rows >> cols),
             "corrupt checkpoint: missing matrix header");
  MFCP_CHECK(rows == like.rows() && cols == like.cols(),
             "checkpoint matrix shape does not match the model");
  Matrix m(rows, cols);
  if (m.size() == 0) {
    return m;
  }
  MFCP_CHECK(is.get() == '\n' && std::getline(is, line),
             "corrupt checkpoint: missing matrix values");
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) {
      MFCP_CHECK(p != end && *p == ' ',
                 "corrupt checkpoint: missing matrix values");
      ++p;
    }
    const auto [next, ec] = std::from_chars(p, end, m[i]);
    MFCP_CHECK(ec == std::errc(), "corrupt checkpoint: bad matrix value");
    p = next;
  }
  MFCP_CHECK(p == end, "corrupt checkpoint: extra matrix values");
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
  for (const Linear& lin : layers) {
    write_matrix(os, lin.weight);
    write_matrix(os, lin.bias);
  }
}

void load_mlp(const std::string& path, Mlp& model) {
  std::ifstream f(path);
  MFCP_CHECK(f.good(), "cannot open checkpoint file for reading: " + path);
  load_mlp(f, model);
}

void load_mlp(std::istream& is, Mlp& model) {
  assign_mlp(model, read_mlp(is, model));
}

std::vector<Matrix> read_mlp(std::istream& is, const Mlp& model) {
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
  std::vector<Matrix> weights;
  weights.reserve(2 * count);
  std::string line;
  for (const Linear& lin : layers) {
    weights.push_back(read_matrix(is, lin.weight, line));
    weights.push_back(read_matrix(is, lin.bias, line));
  }
  return weights;
}

void assign_mlp(Mlp& model, std::vector<Matrix>&& weights) {
  auto& layers = model.linear_layers();
  MFCP_CHECK(weights.size() == 2 * layers.size(),
             "assign_mlp: one weight and one bias per layer");
  for (std::size_t l = 0; l < layers.size(); ++l) {
    MFCP_CHECK(weights[2 * l].same_shape(layers[l].weight) &&
                   weights[2 * l + 1].same_shape(layers[l].bias),
               "assign_mlp: parameter shape does not match the model");
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    layers[l].weight = std::move(weights[2 * l]);
    layers[l].bias = std::move(weights[2 * l + 1]);
  }
}

}  // namespace mfcp::nn
