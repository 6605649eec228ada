#include "pic/sorter.hpp"

#include <stdexcept>

namespace dlpic::pic {

void sort_by_cell(const Grid1D& grid, Species& species, SortScratch& scratch) {
  const size_t n = species.size();
  if (n < 2) return;
  if (n > UINT32_MAX) throw std::length_error("sort_by_cell: more than 2^32 particles");
  auto& xs = species.x();
  auto& vs = species.v();
  const size_t ncells = grid.ncells();
  const double inv_dx = 1.0 / grid.dx();

  // dst[p] holds particle p's cell, then its place in the sorted order.
  std::vector<uint32_t>& dst = scratch.dst;
  std::vector<size_t>& offset = scratch.offset;
  std::vector<double>& sorted = scratch.sorted;
  dst.resize(n);
  offset.assign(ncells + 1, 0);
  for (size_t p = 0; p < n; ++p) {
    size_t c = static_cast<size_t>(xs[p] * inv_dx);
    if (c >= ncells) c = ncells - 1;  // x == L - eps rounding guard
    dst[p] = static_cast<uint32_t>(c);
    ++offset[c + 1];
  }
  for (size_t c = 0; c < ncells; ++c) offset[c + 1] += offset[c];

  // Places handed out in ascending particle order: the sort is stable. Each
  // array is scattered into `sorted` and swapped in, so the species hands
  // its old array back as the scratch for the next one.
  sorted.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const size_t d = offset[dst[p]]++;
    dst[p] = static_cast<uint32_t>(d);
    sorted[d] = xs[p];
  }
  xs.swap(sorted);
  sorted.resize(n);
  for (size_t p = 0; p < n; ++p) sorted[dst[p]] = vs[p];
  vs.swap(sorted);
}

void sort_by_cell(const Grid1D& grid, Species& species) {
  SortScratch scratch;
  sort_by_cell(grid, species, scratch);
}

}  // namespace dlpic::pic
