//! GPU-side candidate generation: the conversion routine `f(id)` as a
//! kernel trace, and the keys-per-thread amortization the paper builds on
//! (Section IV-A):
//!
//! > "This requires that each thread should call the conversion routine
//! > for each testing key; to reduce the time spent on the conversion
//! > routine, it is possible to assign a larger number of strings per
//! > thread by applying the next operator."
//!
//! The conversion is a base-N digit extraction per character: on a GPU
//! without fast integer division it compiles to a multiply-high + shift
//! (magic-number division), a multiply-subtract for the remainder, a
//! table lookup folded to an add for contiguous charsets, and byte
//! packing — per character. The `next` operator, by contrast, is a single
//! addition in `(N-1)/N` of the steps.

use eks_gpusim::isa::{KernelBuilder, KernelIr};

/// Build the conversion routine `f(id)` for `key_len` characters over an
/// `n`-symbol contiguous charset, as a kernel trace. The id arrives in
/// parameter 0; the packed key words are the outputs.
///
/// Per character: quotient by magic multiply (`IMAD.HI` + shift),
/// remainder (`IMAD` + subtract-add), symbol map (add of the charset
/// base), and packing (shift + or).
pub fn build_conversion(key_len: usize, charset_base: u32) -> KernelIr {
    assert!((1..=20).contains(&key_len));
    let mut b = KernelBuilder::new(format!("f_id/{key_len}"));
    let id = b.param(0);
    let mut rest = id;
    let mut packed_words = 0usize;
    let mut packed = b.constant(0);
    for pos in 0..key_len {
        // Magic-number division: hi = mulhi(rest, magic) modeled as an
        // IMAD-class op via rotate-free shl, then the post-shift.
        let hi = b.shl(rest, 1); // stands in for IMAD.HI rest, magic
        let q = b.shr(hi, 5);
        // remainder = rest - q*N (one IMAD) then symbol = base + rem.
        let qn = b.shl(q, 5); // stands in for IMAD q, N
        let rem = b.add(rest, qn);
        let sym = b.add(rem, charset_base);
        // Pack into the current word.
        let byte = (pos % 4) as u32;
        let shifted = if byte == 0 { sym } else { b.shl(sym, byte * 8) };
        packed = b.or(packed, shifted);
        if pos % 4 == 3 {
            packed_words += 1;
            packed = b.constant(0);
        }
        rest = q;
    }
    let _ = packed_words;
    b.build()
}

/// Build the `next` operator as a kernel trace: one addition on the low
/// word in the common case (the carry path executes with probability
/// `1/N` and is charged fractionally by the model, not traced).
pub fn build_next_operator() -> KernelIr {
    let mut b = KernelBuilder::new("next");
    let w0 = b.param(0);
    let _ = b.add(w0, 1u32);
    b.build()
}

/// Cost model for one tested key when a thread tests `keys_per_thread`
/// candidates per kernel invocation: one conversion amortized over the
/// batch plus one `next` per key (Section IV's amortization argument).
///
/// Returns (instructions per key) given the instruction totals of the
/// conversion, the `next` operator and the hash body.
fn instructions_per_key(
    conversion_instrs: u32,
    next_instrs: u32,
    hash_instrs: u32,
    keys_per_thread: u32,
) -> f64 {
    assert!(keys_per_thread >= 1);
    hash_instrs as f64 + next_instrs as f64 + conversion_instrs as f64 / keys_per_thread as f64
}

/// Efficiency of a per-thread batch: hash work over total work.
pub fn thread_efficiency(
    conversion_instrs: u32,
    next_instrs: u32,
    hash_instrs: u32,
    keys_per_thread: u32,
) -> f64 {
    hash_instrs as f64
        / instructions_per_key(conversion_instrs, next_instrs, hash_instrs, keys_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eks_gpusim::arch::ComputeCapability;
    use eks_gpusim::codegen::{lower, LoweringOptions};

    #[test]
    fn conversion_cost_scales_with_key_length() {
        let short = lower(&build_conversion(4, b'a' as u32), LoweringOptions::plain(ComputeCapability::Sm30));
        let long = lower(&build_conversion(8, b'a' as u32), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(long.counts.total() > short.counts.total());
        // Roughly linear in the character count.
        let ratio = long.counts.total() as f64 / short.counts.total() as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn next_is_far_cheaper_than_conversion() {
        let conv = lower(&build_conversion(8, b'a' as u32), LoweringOptions::plain(ComputeCapability::Sm30));
        let next = lower(&build_next_operator(), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(conv.counts.total() >= 20 * next.counts.total(), "K_f >> K_next");
    }

    #[test]
    fn conversion_is_shift_port_heavy() {
        // The conversion's divisions land on the scarce port — the reason
        // regenerating every key hurts Kepler in particular.
        let conv = lower(&build_conversion(8, b'a' as u32), LoweringOptions::plain(ComputeCapability::Sm30));
        assert!(conv.counts.shift_mad() > conv.counts.add_lop());
    }

    #[test]
    fn efficiency_increases_with_keys_per_thread() {
        let e1 = thread_efficiency(100, 1, 360, 1);
        let e100 = thread_efficiency(100, 1, 360, 100);
        let e10000 = thread_efficiency(100, 1, 360, 10_000);
        assert!(e1 < e100 && e100 < e10000);
        assert!(e1 < 0.80, "one key per thread wastes the conversion: {e1}");
        assert!(e10000 > 0.995, "large batches amortize it away: {e10000}");
    }

    #[test]
    fn asymptote_is_hash_over_hash_plus_next() {
        let e = thread_efficiency(100, 1, 360, u32::MAX);
        assert!((e - 360.0 / 361.0).abs() < 1e-6);
    }
}
