#pragma once
/// \file sorter.hpp
/// Periodic particle reordering by grid cell. As the two-stream instability
/// mixes phase space, neighboring particles in memory end up in distant
/// cells and every gather/deposit touches the field arrays at random —
/// re-sorting by cell every few dozen steps restores streaming access.
/// Same counting-sort idea as the phase-space binner's NGP histogram, but
/// applied as a permutation of the particle arrays.

#include <cstdint>
#include <vector>

#include "pic/grid.hpp"
#include "pic/species.hpp"

namespace dlpic::pic {

/// Grow-only scratch of sort_by_cell: one index per particle, one offset
/// per cell and one particle array, which takes turns with the species'
/// own arrays. A caller that sorts the same particles repeatedly (the PIC
/// step loop) keeps one, so a steady-state sort allocates nothing; the
/// scratch is freed with its owner.
struct SortScratch {
  std::vector<uint32_t> dst;
  std::vector<size_t> offset;
  std::vector<double> sorted;
};

/// Stable counting sort of the particles of `species` by cell index
/// floor(x/dx). O(N + ncells) time. Stability makes the reordering
/// deterministic, so runs with identical configs stay bitwise-reproducible.
/// Physics is invariant under the permutation up to floating-point
/// summation order in diagnostics and deposition. Throws std::length_error
/// beyond 2^32 particles.
void sort_by_cell(const Grid1D& grid, Species& species, SortScratch& scratch);

/// The same sort with a scratch of its own, allocated for the call.
void sort_by_cell(const Grid1D& grid, Species& species);

}  // namespace dlpic::pic
