#!/usr/bin/env bash
# Static-analysis gate: clang-tidy (when installed) + a textual secret-flow
# lint that backstops the runtime taint audit (ctest -L ct).
#
# The lint forbids, anywhere outside the runtime-audited files, source lines
# that apply variable-time operators to secret-named identifiers:
#
#   1. `secret… /` or `secret… %`   division/modulo on secret data compiles
#      to data-dependent-latency instructions on most cores;
#   2. `table[…secret…]`            indexing BY a secret value is a classic
#      cache side channel (indexing INTO a secret array, `secret[i]`, is
#      fine and not matched);
#   3. gather/scatter intrinsics    (`_i32gather`, `_i64gather`, `_scatter`)
#      anywhere in src/: a SIMD lookup indexed by lane values. The vector
#      NTT kernel loads only operand arrays, in order, and public twiddle
#      rows.
#
# Audited files are exempt: everything under src/ct/ (the analyzer names the
# operators it traps) and the flow/sampler kernels, whose secret arithmetic
# runs under ct::Tainted in ct_audit_test and is proven trap-free there. A
# self-test first checks the patterns fire on known-bad lines, so an empty
# result means "scanned and clean", not "pattern rotted".
#
# clang-tidy is optional (not in the base image): when absent the tidy stage
# is skipped with a notice and the lint still gates. Point CLANG_TIDY at a
# specific binary to override discovery.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

# --- stage 1: clang-tidy over compile_commands.json ------------------------

tidy="${CLANG_TIDY:-clang-tidy}"
if command -v "$tidy" >/dev/null 2>&1; then
  build_dir=""
  for d in build build-release build-asan build-tsan; do
    if [ -f "$d/compile_commands.json" ]; then build_dir="$d"; break; fi
  done
  if [ -z "$build_dir" ]; then
    echo "static_analysis: no compile_commands.json found; configure a preset first" >&2
    status=1
  else
    echo "== clang-tidy ($build_dir) =="
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if ! "$tidy" -p "$build_dir" --quiet "${sources[@]}"; then
      status=1
    fi
  fi
else
  echo "static_analysis: clang-tidy not installed; skipping tidy stage (lint still gates)"
fi

# --- stage 2: secret-flow grep lint ----------------------------------------

# Identifier stems treated as secret. `sk` alone is excluded from the
# division pattern operand side only via the word boundary; sk_, secret*,
# coins* all count.
divmod_re='\b(secret|coins|sk)[A-Za-z0-9_]*[[:space:]]*[%/][^/*]'
index_re='[A-Za-z0-9_]\[[^][]*\b(secret|coins)[A-Za-z0-9_]*\b[^][]*\]'
gather_re='_(i32gather|i64gather|[A-Za-z0-9]*scatter)'

# Runtime-audited files: their secret arithmetic executes under ct::Tainted
# in ct_audit_test (zero violations required), so the textual lint defers to
# the stronger runtime check there.
audited_re='^src/ct/|^src/saber/flows\.hpp|^src/saber/gen\.hpp|^src/common/ctops\.hpp'

# Self-test: the patterns must fire on known-bad lines or the lint is dead.
selftest=$(mktemp)
cat > "$selftest" <<'EOF'
int a = secret_byte % 3;
int b = coins / 7;
int c = table[secret_idx];
__m512i d = _mm512_i64gather_epi64(idx, base, 8);
__m256i e = _mm256_mask_i32gather_epi32(src, mask, idx, base, 4);
_mm512_i64scatter_epi64(base, idx, v, 8);
EOF
if [ "$(grep -cE "$divmod_re" "$selftest")" != 2 ] ||
   [ "$(grep -cE "$index_re" "$selftest")" != 1 ] ||
   [ "$(grep -cE "$gather_re" "$selftest")" != 3 ]; then
  echo "static_analysis: secret-lint self-test failed — patterns no longer fire" >&2
  rm -f "$selftest"
  exit 1
fi
rm -f "$selftest"

echo "== secret-flow lint =="
hits=$( { grep -rnE "$divmod_re" src --include='*.hpp' --include='*.cpp';
          grep -rnE "$index_re"  src --include='*.hpp' --include='*.cpp'; } \
        | grep -vE "$audited_re" || true)
if [ -n "$hits" ]; then
  echo "variable-time operator on a secret-named identifier outside audited files:" >&2
  echo "$hits" >&2
  echo "(fix it, or route the kernel through the src/ct audit and list it in audited_re)" >&2
  status=1
else
  echo "clean: no secret-named identifier feeds /, % or a table index outside audited files"
fi

gathers=$(grep -rnE "$gather_re" src --include='*.hpp' --include='*.cpp' || true)
if [ -n "$gathers" ]; then
  echo "gather/scatter intrinsic in src/ (a lookup indexed by lane values):" >&2
  echo "$gathers" >&2
  status=1
else
  echo "clean: no gather/scatter intrinsic in src/"
fi

exit "$status"
