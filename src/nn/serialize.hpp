// Model checkpointing: plain-text parameter dump/restore.
//
// Format (line oriented, locale independent):
//   mfcp-mlp 1
//   <layer count>
//   rows cols\n<row-major values ...>\n   (weight, then bias, per Linear)
// Values are %.17g, one space apart, all of a matrix on one line; a
// matrix without values has no value line. Doubles round-trip bit for
// bit. The writer formats with std::to_chars and the reader parses with
// std::from_chars, accepting exactly what the writer writes (the bytes
// are those operator<< wrote at precision 17).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/mlp.hpp"

namespace mfcp::nn {

/// Writes all Linear parameters of `model` to the stream.
void save_mlp(const std::string& path, Mlp& model);
void save_mlp(std::ostream& os, Mlp& model);

/// Restores parameters into an Mlp with an identical architecture.
/// Throws on shape or format mismatch, leaving `model` untouched.
void load_mlp(const std::string& path, Mlp& model);
void load_mlp(std::istream& is, Mlp& model);

/// The two halves of load_mlp, for callers that restore several models
/// all or nothing. read_mlp parses one block for `model` without
/// touching it: weight, then bias, per Linear. Every matrix header is
/// checked against the model before its values are allocated.
[[nodiscard]] std::vector<Matrix> read_mlp(std::istream& is,
                                           const Mlp& model);
/// Moves weights from read_mlp into `model`; throws, leaving `model`
/// untouched, if they do not fit it.
void assign_mlp(Mlp& model, std::vector<Matrix>&& weights);

}  // namespace mfcp::nn
