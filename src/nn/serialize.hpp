// Checkpointing: save/load a model's named parameters to a simple binary
// container so long experiments can snapshot and resume, and trained
// models can be compared across runs.
//
// Format (little-endian host order):
//   magic "DTCKPT02" (8 bytes)
//   u32 slot_count
//   per slot: u32 name_len, name bytes, u32 rank, i64 dims[rank],
//             f32 data[numel]
//   u32 crc32 of everything after the magic (poly 0xEDB88320)
// Loading verifies the checksum ("checkpoint: bad checksum" on corruption)
// and names/shapes against the target model (checkpoints are not
// containers for arbitrary reshaping).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/model.hpp"

namespace dt::nn {

void save_checkpoint(const Sequential& model, std::ostream& os);
void save_checkpoint(const Sequential& model, const std::string& path);

/// Loads parameters into `model`; throws common::Error when the checkpoint
/// does not match the model's slot names/shapes or is corrupt.
void load_checkpoint(Sequential& model, std::istream& is);
void load_checkpoint(Sequential& model, const std::string& path);

}  // namespace dt::nn
