// AVX-512 IFMA kernels for the three hot NttMultiplier bodies: the forward
// and inverse transforms and the pointwise multiply-accumulate, eight u64
// lanes per vector, every product by VPMADD52LUQ/VPMADD52HUQ.
//
// They compute what ntt_forward_g / ntt_inverse_g / ntt_mulmod_g +
// ntt_addmod_g compute, bit for bit: same prime, same twiddle order, same
// lazy bounds, canonical outputs. The twiddle products are 52-bit Shoup
// products, q = floor(y * floor(w * 2^52 / p') / 2^52), which undershoot
// floor(y * w / p') by at most one for any y < 2^52; the lazy lanes stay
// below 2^50 (bounds in ntt.hpp), so every intermediate is a representative
// in [0, 2p') like the scalar kernel's, and the canonical results agree.
//
// The kernels are compiled for AVX-512 F+VL+IFMA per function; nothing else
// in the build is. NttMultiplier runs them only when make_ntt_tables() found
// those features on this CPU (NttTables::ifma); otherwise, and under the ct
// audit, the scalar word-generic kernel runs. They take no branch, load and
// permute only with public indices, and read operands in order.
#pragma once

#include "mult/ntt.hpp"

namespace saber::mult {

/// True when this CPU (and OS) runs AVX-512 F, VL and IFMA code.
bool cpu_has_ifma();

/// ntt_forward_g over the kN residues at v, in place. Inputs canonical.
void ntt_forward_ifma(u64* v, const NttTables& t);

/// ntt_inverse_g over the kN residues at v, in place. Inputs canonical.
void ntt_inverse_ifma(u64* v, const NttTables& t);

/// acc[i] = ntt_addmod_g(acc[i], ntt_mulmod_g(a[i], b[i])) for i < kN.
/// All operands canonical.
void ntt_pointwise_accumulate_ifma(u64* acc, const u64* a, const u64* b);

}  // namespace saber::mult
