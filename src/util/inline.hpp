#pragma once
/// \file inline.hpp
/// DLPIC_ALWAYS_INLINE: inline a small helper into every caller, at every
/// optimization level.
///
/// The SIMD kernel backends are translation units compiled with their own
/// target flags (-mavx2, -mavx512*). A shared inline function such a unit
/// calls but does not inline (every call, at -O0) is emitted there as a weak
/// definition compiled with those flags, and the linker keeps one copy of it
/// for the whole program, possibly that one: portable code would then run
/// AVX instructions. Shared helpers that the SIMD units call carry this
/// macro, so those units inline them and define no copy.

#if defined(__GNUC__) || defined(__clang__)
#define DLPIC_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DLPIC_ALWAYS_INLINE inline
#endif
