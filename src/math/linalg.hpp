#pragma once
/// \file linalg.hpp
/// Dense BLAS-like kernels backing the neural-network library.
///
/// GEMM is the performance core of both MLP training (dense layers) and the
/// CNN (im2col + GEMM convolution). The implementation is a cache-blocked,
/// register-tiled kernel parallelized over the 2D grid of output tiles with
/// parallel_for_chunks, so both tall and flat matrices scale across
/// workers. All matrices are row-major.

#include <cstddef>
#include <vector>

namespace dlpic::math {

/// C[m x n] = alpha * op(A) * op(B) + beta * C, row-major.
/// op is identity or transpose per the trans_a / trans_b flags.
/// A is (m x k) when !trans_a, (k x m) when trans_a (likewise for B).
///
/// Two kernel paths, chosen from the shape alone. When trans_b is set and
/// m <= 32 (a small-batch dense forward, such as the DL-PIC field solve or
/// a served batch), B's rows are read in place through
/// KernelBackend::gemm_nt_block, in groups of up to 16 A rows; otherwise B
/// is packed into panels for gemm_block. Both walk the same column tiles
/// and k-blocks with the same per-element operation order, so the result is
/// bitwise identical either way, on every backend, worker count and batch
/// size.
void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const double* A, size_t lda, const double* B, size_t ldb, double beta,
          double* C, size_t ldc);

/// Convenience GEMM over contiguous row-major matrices with natural strides.
void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const std::vector<double>& A, const std::vector<double>& B, double beta,
          std::vector<double>& C);

/// B = A^T for row-major A (m x n) -> B (n x m).
void transpose(size_t m, size_t n, const double* A, double* B);

}  // namespace dlpic::math
