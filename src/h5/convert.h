// Element-wise datatype conversion between the ten h5 element types.
// Datasets are written and read in their own type, so nothing on the
// data path calls this.
#pragma once

#include <cstddef>
#include <span>

#include "h5/datatype.h"

namespace apio::h5 {

/// Converts `count` elements from `src` (elements of type `from`) into
/// `dst` (elements of type `to`) with static_cast semantics per
/// element.  Buffer byte sizes must match count * element size; throws
/// InvalidArgumentError otherwise.  `from == to` degenerates to memcpy.
void convert_elements(Datatype from, std::span<const std::byte> src, Datatype to,
                      std::span<std::byte> dst, std::uint64_t count);

}  // namespace apio::h5
