#!/usr/bin/env bash
# Where a hot loop's closing branch sits, for reading a timing that moved
# with no code change. Intel cores since Skylake, with the JCC-erratum
# microcode, do not cache in the decoded-uop cache a jump (or a cmp/test
# macro-fused with the jump after it) whose bytes cross or end on a 32-byte
# boundary: a tight loop whose closing branch lands there runs measurably
# slower, and where it lands moves with the linker's layout, which moves
# with the code around it and even with the checkout path.
#
#   scripts/branch_align.sh SYMBOL [BINARY]
#   scripts/branch_align.sh 'memres_core::rdd::Dataset::synthetic'
#
# For every function in BINARY (default: the benchmark's release binary,
# benchmark/target/release/memres-benchmark) whose demangled name contains
# SYMBOL, prints each backward branch (a loop's closing jump: its target is
# at a lower address inside the function): its address, its bytes, the
# fused compare before it if any, and a flag when the branch (with its
# fused compare) ENDS on a 32-byte boundary (its last byte is the last of a
# 32-byte block) or CROSSES one. Needs `nm` and `objdump`; reads the binary
# only.
set -euo pipefail
usage="usage: $0 SYMBOL [BINARY]"
[[ $# -ge 1 && $# -le 2 ]] || { echo "$usage" >&2; exit 2; }
sym=$1
bin=${2:-benchmark/target/release/memres-benchmark}
[[ -f $bin ]] || { echo "$0: no binary $bin (build it first)" >&2; exit 2; }

found=0
# `nm -C -S`: address, size, type, demangled name; text symbols only.
while read -r addr size _ name; do
  found=1
  start=$((16#$addr)) end=$((16#$addr + 16#$size))
  printf '%s  0x%x..0x%x (%d bytes)\n' "$name" "$start" "$end" $((end - start))
  # One instruction a line: address, mnemonic, operands. An instruction's
  # length is the distance to the next one's address (the last one's, to
  # the end of the symbol), which also covers objdump's wrapped byte lines.
  objdump -d --no-show-raw-insn --start-address=$start --stop-address=$end "$bin" |
    awk -F'\t' '/^ *[0-9a-f]+:\t/ { a = $1; sub(/^ */, "", a); sub(/:$/, "", a); print a "\t" $2 }' |
    {
      prev_at= prev_op= at= op=
      branches=0 flagged=0
      report() {  # the instruction at $at (mnemonic and operands $op) ends at $1
        local next=$1 mnem target from ends crosses note
        mnem=${op%% *}
        [[ $mnem == j* ]] || return 0
        target=$(sed -nE 's/^j[a-z]+ +([0-9a-f]+)( .*)?$/\1/p' <<<"$op")
        [[ -n $target ]] || return 0  # an indirect jump
        (( 16#$target < at && 16#$target >= start )) || return 0
        branches=$((branches + 1))
        from=$at note=
        case ${prev_op%% *} in
          cmp*|test*|and*|add*|sub*|inc*|dec*)
            from=$prev_at note=" (fused with ${prev_op%% *} at 0x$(printf '%x' "$prev_at"))" ;;
        esac
        ends= crosses=
        (( next % 32 == 0 )) && ends=" ENDS ON A 32-BYTE BOUNDARY"
        (( from / 32 != (next - 1) / 32 )) && crosses=" CROSSES A 32-BYTE BOUNDARY"
        [[ -n $ends$crosses ]] && flagged=$((flagged + 1))
        printf '  0x%x  %-6s -> 0x%s, %d bytes, last byte 0x%x (+%d in its 32-byte block)%s%s%s\n' \
          "$at" "$mnem" "$target" $((next - at)) $((next - 1)) $(((next - 1) % 32)) \
          "$note" "$ends" "$crosses"
      }
      while IFS=$'\t' read -r a o; do
        if [[ -n $at ]]; then report $((16#$a)); prev_at=$at prev_op=$op; fi
        at=$((16#$a)) op=$o
      done
      [[ -z $at ]] || report "$end"
      echo "  $branches backward branch(es), $flagged flagged"
    }
done < <(nm -C -S --defined-only "$bin" | awk -v s="$sym" '$3 ~ /^[tT]$/ && index($0, s) {
  name = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", name); print $1, $2, $3, name }')
[[ $found == 1 ]] || { echo "$0: no text symbol in $bin contains '$sym'" >&2; exit 1; }
