#include "math/linalg.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

// The kernel-backend seam is owned by the nn layer but deliberately depends
// on nothing, so the math layer can dispatch through it without a cycle.
#include "nn/backend.hpp"
#include "util/parallel.hpp"

namespace dlpic::math {

namespace {

// Cache-blocking parameters tuned for typical L1/L2 sizes; the micro-kernel
// (KernelBackend::gemm_block) updates register tiles inside these panels.
constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 64;
constexpr size_t kBlockK = 256;
// Most packed A rows one skinny NT call takes (the bound of
// KernelBackend::gemm_nt_block): a backend that holds that many rows in
// registers reads each B panel once per batch.
constexpr size_t kNtRows = 16;
// Largest m for which a transposed-B product reads B in place. The measured
// crossover with the packed path, on a dense-input 1024 x 1024 forward: in
// place wins at 16 and 32 rows, ties at 48 and loses at 64. On the Conv2D
// weight-gradient shapes (m = out_channels, n = in_channels * 9, k = the
// image plane) it wins or ties on every backend. Any value up to kBlockM
// leaves the packed path's one row block, so both paths run the same task
// grid.
constexpr size_t kInPlaceMaxRows = 32;

// Packs a (rows x cols) block of op(A) into contiguous row-major storage so
// the inner kernel streams unit-stride regardless of transposition.
void pack_block(bool trans, const double* src, size_t ld, size_t row0, size_t col0,
                size_t rows, size_t cols, double* dst) {
  if (!trans) {
    for (size_t i = 0; i < rows; ++i)
      std::memcpy(dst + i * cols, src + (row0 + i) * ld + col0, cols * sizeof(double));
  } else {
    // Logical element (row0+i, col0+j) lives at src[(col0+j)*ld + (row0+i)].
    for (size_t i = 0; i < rows; ++i)
      for (size_t j = 0; j < cols; ++j) dst[i * cols + j] = src[(col0 + j) * ld + (row0 + i)];
  }
}

// Fewest multiply-adds one parallel chunk of output tiles carries; a GEMM
// with fewer in total runs on the calling thread. Measured on a 4-vCPU host
// at batch 1: a 1024 -> 128 -> 128 -> 128 -> 64 MLP (at most 131k per layer)
// runs 2x faster with every layer serial than split over pool workers, while
// the paper MLP's 1024 x 1024 layers (1M) still need their eight-way split.
// One task still owns each tile, so the grain never changes a result bit.
constexpr size_t kMinChunkMacs = size_t{1} << 17;

// Tile-count grain that gives each chunk at least kMinChunkMacs.
size_t chunk_grain(size_t tile_macs) {
  return (kMinChunkMacs + tile_macs - 1) / tile_macs;
}

}  // namespace

void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const double* A, size_t lda, const double* B, size_t ldb, double beta,
          double* C, size_t ldc) {
  // Scale C by beta first so the blocked accumulation can simply add.
  if (beta == 0.0) {
    for (size_t i = 0; i < m; ++i) std::memset(C + i * ldc, 0, n * sizeof(double));
  } else if (beta != 1.0) {
    for (size_t i = 0; i < m; ++i)
      for (size_t j = 0; j < n; ++j) C[i * ldc + j] *= beta;
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  // Parallelize over the 2D grid of output tiles (not just row panels) so
  // flat matrices — few row blocks, many column blocks, the shape of wide
  // dense layers and im2col GEMMs — still expose enough tasks to scale.
  // Each tile of C is owned by exactly one task, so no synchronization is
  // needed on the output.
  const size_t m_blocks = (m + kBlockM - 1) / kBlockM;
  const size_t n_blocks = (n + kBlockN - 1) / kBlockN;
  // Resolve the backend on the calling thread and capture it: chunk bodies
  // run on pool workers, where the thread-local selection is not in scope.
  const nn::KernelBackend* backend = &nn::active_backend();

  if (trans_b && m <= kInPlaceMaxRows) {
    // Skinny NT (a small-batch dense forward): op(B)'s columns are B's rows,
    // contiguous in k, so read them in place instead of gathering a
    // transposed panel at stride ldb. Each (column tile, k-block) of B stays
    // hot in cache while every group of up to kNtRows A rows passes over it.
    // Same column tiles, k-blocks and alpha-scaled A rows as below, so the
    // result is bitwise the packed one.
    util::parallel_for_chunks(0, n_blocks, [&](size_t tile_lo, size_t tile_hi) {
      double Arows[kNtRows * kBlockK];
      for (size_t t = tile_lo; t < tile_hi; ++t) {
        const size_t j0 = t * kBlockN;
        const size_t nb = std::min(kBlockN, n - j0);
        for (size_t p0 = 0; p0 < k; p0 += kBlockK) {
          const size_t kb = std::min(kBlockK, k - p0);
          for (size_t i0 = 0; i0 < m; i0 += kNtRows) {
            const size_t mr = std::min(kNtRows, m - i0);
            pack_block(trans_a, A, lda, i0, p0, mr, kb, Arows);
            if (alpha != 1.0)
              for (size_t q = 0; q < mr * kb; ++q) Arows[q] *= alpha;
            backend->gemm_nt_block(mr, nb, kb, Arows, B + j0 * ldb + p0, ldb,
                                   C + i0 * ldc + j0, ldc);
          }
        }
      }
    }, chunk_grain(m * std::min(kBlockN, n) * k));
    return;
  }

  util::parallel_for_chunks(0, m_blocks * n_blocks, [&](size_t tile_lo, size_t tile_hi) {
    // Per-thread pack buffers, reused across calls: the training hot loop
    // performs zero steady-state heap allocations.
    thread_local std::vector<double> Ablk(kBlockM * kBlockK);
    thread_local std::vector<double> Bblk(kBlockK * kBlockN);
    // Tiles are handed out in row-major tile order, so a chunk is a series
    // of runs sharing one row block; pack (and alpha-scale) each A block
    // once per run instead of once per tile.
    size_t t = tile_lo;
    while (t < tile_hi) {
      const size_t bi = t / n_blocks;
      const size_t run_end = std::min(tile_hi, (bi + 1) * n_blocks);
      const size_t i0 = bi * kBlockM;
      const size_t mb = std::min(kBlockM, m - i0);
      for (size_t p0 = 0; p0 < k; p0 += kBlockK) {
        const size_t kb = std::min(kBlockK, k - p0);
        pack_block(trans_a, A, lda, i0, p0, mb, kb, Ablk.data());
        if (alpha != 1.0)
          for (size_t q = 0; q < mb * kb; ++q) Ablk[q] *= alpha;
        for (size_t tt = t; tt < run_end; ++tt) {
          const size_t j0 = (tt % n_blocks) * kBlockN;
          const size_t nb = std::min(kBlockN, n - j0);
          pack_block(trans_b, B, ldb, p0, j0, kb, nb, Bblk.data());
          backend->gemm_block(mb, nb, kb, Ablk.data(), Bblk.data(), C + i0 * ldc + j0,
                              ldc);
        }
      }
      t = run_end;
    }
  }, chunk_grain(std::min(kBlockM, m) * std::min(kBlockN, n) * k));
}

void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const std::vector<double>& A, const std::vector<double>& B, double beta,
          std::vector<double>& C) {
  const size_t lda = trans_a ? m : k;
  const size_t ldb = trans_b ? k : n;
  if (A.size() < (trans_a ? k : m) * lda || B.size() < (trans_b ? n : k) * ldb)
    throw std::invalid_argument("gemm: input sizes inconsistent with m/n/k");
  C.resize(m * n);
  gemm(trans_a, trans_b, m, n, k, alpha, A.data(), lda, B.data(), ldb, beta, C.data(), n);
}

void transpose(size_t m, size_t n, const double* A, double* B) {
  constexpr size_t kTile = 32;
  for (size_t i0 = 0; i0 < m; i0 += kTile)
    for (size_t j0 = 0; j0 < n; j0 += kTile) {
      const size_t i1 = std::min(m, i0 + kTile);
      const size_t j1 = std::min(n, j0 + kTile);
      for (size_t i = i0; i < i1; ++i)
        for (size_t j = j0; j < j1; ++j) B[j * m + i] = A[i * n + j];
    }
}

}  // namespace dlpic::math
