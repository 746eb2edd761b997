// Compact textual encoding of h5::Selection used by the unified
// IoRecord stream and the trace CSV format.
//
// Grammar: "all" for the full-extent selection; otherwise
// "start0xstart1:count0xcount1" with optional ":stride:block" suffixes
// (dims joined by 'x').  The alphabet is [0-9x:al], so tokens never
// collide with CSV separators.
#pragma once

#include <cstdint>
#include <string>

#include "h5/dataspace.h"

namespace apio::vol {

std::string selection_to_token(const h5::Selection& selection);

/// Parses a token; throws FormatError on malformed input.  The empty
/// token decodes to Selection::all() (records of path-less operations
/// such as flush carry no selection).
h5::Selection selection_from_token(const std::string& token);

/// Byte offset of the selection's first element within a dataset of
/// `dims` (row-major); 0 for an all-selection.
std::uint64_t selection_offset_bytes(const h5::Selection& selection,
                                     const h5::Dims& dims,
                                     std::uint64_t element_size);

}  // namespace apio::vol
