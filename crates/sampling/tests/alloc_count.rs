//! Allocation-count regression test for the Floyd draw's scratch.
//!
//! Pins [`SamplerScratch`]'s pick set at one bit per population member,
//! using the graph crate's per-thread counting allocator. The test lives
//! in its own integration-test binary so the allocator swap cannot
//! perturb any other test.

#[path = "../../graph/tests/common/mod.rs"]
mod common;

use common::counted;
use ensemfdet_sampling::SamplerScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn floyd_scratch_is_one_bit_per_population_member() {
    const N: usize = 1_000_000;
    let mut scratch = SamplerScratch::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mut picks = 0usize;
    let (_, bytes, ()) = counted(|| scratch.floyd_fill(N, 1000, &mut rng, |_| picks += 1));
    // ⌈n/64⌉ bitmap words plus slack for the allocator's rounding.
    let bound = N.div_ceil(64) * 8 + 64;
    assert!(
        bytes <= bound,
        "a Floyd draw over {N} requested {bytes} bytes, over the {bound}-byte budget"
    );
    assert_eq!(picks, 1000);

    let (calls, _, ()) = counted(|| scratch.floyd_fill(N, 1000, &mut rng, |_| {}));
    assert_eq!(calls, 0, "a steady-state draw allocated");
}
