//! Lane-packed twin of [`ScanCore`](super::ScanCore): 64 devices per word.
//!
//! The fleet's packed device-parallel engine simulates up to 64 independent
//! dies at once. All dies run the identical compiled test program and
//! differ only by at most one stuck-at defect, so their scan cores can be
//! bit-sliced: every flip-flop of every chain is stored as one `u64` whose
//! bit `l` is lane `l`'s value, and one shift or capture clock advances all
//! lanes with word-wide operations. A per-device stuck-at defect becomes a
//! per-lane *force word* `(mask, value)` at the defective flop, re-asserted
//! after every clock — the 2-valued device-axis analogue of the 3-plane
//! PPSFP encoding in the fault simulator.
//!
//! Each chain is a ring buffer with its own head index, so one shift clock
//! costs O(chains + forces) word operations whatever the chain lengths: the
//! serial output is read at the slot just before the head, the head steps
//! back onto it, and the scan-in word overwrites it. Captures, resets and
//! reads see the chains in flop order.
//!
//! The transform is the exact word-wise lift of the scalar model: lane `l`
//! of a [`PackedScanLanes`] evolves bit-identically to a standalone
//! [`ScanCore`](super::ScanCore) carrying lane `l`'s fault (pinned by the
//! differential tests below), which is what lets the packed fleet path
//! reproduce scalar device reports bit for bit.

use casbus_tpg::lanes::broadcast;

use super::name_key;

/// Up to 64 lane-packed scan cores sharing one set of chain geometries.
///
/// Construction clears every flop in every lane. Stuck-at defects are
/// injected per lane with [`inject_stuck_at`](Self::inject_stuck_at);
/// lanes without a defect behave as healthy cores.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::PackedScanLanes;
///
/// let mut packed = PackedScanLanes::new("cpu", &[8, 6]);
/// packed.inject_stuck_at(3, 0, 2, true); // lane 3: chain 0, flop 2 stuck-at-1
/// let mut outs = [0u64; 2]; // one output word per chain
/// packed.test_clock_lanes(&[u64::MAX, 0], &mut outs);
/// assert_eq!(outs, [0, 0], "cleared flops shift out zeros");
/// ```
#[derive(Debug, Clone)]
pub struct PackedScanLanes {
    /// `chains[c]` — ring buffer of chain `c`'s lane words: flip-flop `i`
    /// lives at index `(heads[c] + i) % chains[c].len()`.
    chains: Vec<Vec<u64>>,
    /// Storage index of flip-flop 0, per chain.
    heads: Vec<usize>,
    /// Capture double buffer, the same shape as `chains`.
    scratch: Vec<Vec<u64>>,
    key: u64,
    /// Merged stuck-at forces: `(chain, position, mask, value)` — lanes in
    /// `mask` are overwritten with the matching bits of `value` after every
    /// clock, like a stuck node feeding those lanes' scan flops.
    forces: Vec<(usize, usize, u64, u64)>,
}

impl PackedScanLanes {
    /// Creates a packed core with the given chain lengths, every lane's
    /// flip-flops cleared.
    ///
    /// # Panics
    ///
    /// Panics if no chain is given or any chain is empty — the same
    /// contract as the scalar model.
    #[must_use]
    pub fn new(name: &str, chain_lengths: &[usize]) -> Self {
        assert!(
            !chain_lengths.is_empty(),
            "a scan core needs at least one chain"
        );
        assert!(
            chain_lengths.iter().all(|&l| l > 0),
            "scan chains must be non-empty"
        );
        let chains: Vec<Vec<u64>> = chain_lengths.iter().map(|&l| vec![0u64; l]).collect();
        Self {
            heads: vec![0; chains.len()],
            scratch: chains.clone(),
            chains,
            key: name_key(name),
            forces: Vec::new(),
        }
    }

    /// Injects a stuck-at defect on flip-flop `position` of `chain`, in
    /// lane `lane` only. Takes effect immediately and re-asserts after
    /// every subsequent clock.
    ///
    /// Forces accumulate per flop: re-injecting the *same* lane and flop
    /// overwrites the stuck value (last write wins, like the scalar
    /// model), while injecting the same lane at a different flop keeps
    /// both — the fleet stamps at most one defect per lane, so the
    /// difference from the scalar single-fault slot never materialises
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if the lane or flop location is out of range.
    pub fn inject_stuck_at(&mut self, lane: usize, chain: usize, position: usize, value: bool) {
        assert!(lane < 64, "lane index out of range");
        assert!(chain < self.chains.len(), "chain index out of range");
        assert!(position < self.chains[chain].len(), "position out of range");
        let bit = 1u64 << lane;
        let slot = self
            .forces
            .iter_mut()
            .find(|(c, p, _, _)| *c == chain && *p == position);
        match slot {
            Some((_, _, mask, forced)) => {
                *mask |= bit;
                if value {
                    *forced |= bit;
                } else {
                    *forced &= !bit;
                }
            }
            None => self
                .forces
                .push((chain, position, bit, if value { bit } else { 0 })),
        }
        self.apply_forces();
    }

    /// One shift clock for all lanes: bit `l` of `inputs[c]` enters lane
    /// `l` of chain `c`, and `outputs[c]` receives every lane's serial
    /// output bit of chain `c`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` or `outputs.len()` differs from the chain
    /// count.
    pub fn test_clock_lanes(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        assert_eq!(inputs.len(), self.chains.len(), "scan-in width mismatch");
        assert_eq!(outputs.len(), self.chains.len(), "scan-out width mismatch");
        let chains = self.chains.iter_mut().zip(&mut self.heads);
        for ((chain, head), (&input, out)) in chains.zip(inputs.iter().zip(outputs)) {
            // The last flop sits just before the head; stepping the head
            // back onto it makes that slot flop 0 and moves every other
            // flop one position down the chain.
            *head = head.checked_sub(1).unwrap_or(chain.len() - 1);
            *out = chain[*head];
            chain[*head] = input;
        }
        self.apply_forces();
    }

    /// One capture clock for all lanes: the word-wise lift of the scalar
    /// capture transform — every flop becomes the XOR of itself, its
    /// cyclic successor, the parallel flop of the next chain, and a
    /// broadcast key bit.
    pub fn capture_clock_lanes(&mut self) {
        self.normalise();
        let n_chains = self.chains.len();
        for (c, (chain, out)) in self.chains.iter().zip(&mut self.scratch).enumerate() {
            // Flop i's key bit is bit (i + 7c) % 64 of the core key.
            let key = self.key.rotate_right((7 * c % 64) as u32);
            let succs = chain.iter().cycle().skip(1);
            let crosses = self.chains[(c + 1) % n_chains].iter().cycle();
            let inputs = chain.iter().zip(succs).zip(crosses);
            for (i, (word, ((own, succ), cross))) in out.iter_mut().zip(inputs).enumerate() {
                *word = own ^ succ ^ cross ^ broadcast((key >> (i % 64)) & 1 == 1);
            }
        }
        std::mem::swap(&mut self.chains, &mut self.scratch);
        self.apply_forces();
    }

    /// Clears every lane's flip-flops (defects re-assert).
    pub fn reset_lanes(&mut self) {
        for chain in &mut self.chains {
            chain.iter_mut().for_each(|w| *w = 0);
        }
        self.heads.fill(0);
        self.apply_forces();
    }

    /// Lane word currently held by flop `position` of `chain` (for
    /// white-box tests).
    ///
    /// # Panics
    ///
    /// Panics if the flop location is out of range.
    #[must_use]
    pub fn chain_word(&self, chain: usize, position: usize) -> u64 {
        let words = &self.chains[chain];
        assert!(position < words.len(), "position out of range");
        words[(self.heads[chain] + position) % words.len()]
    }

    /// Rotates every ring buffer back into flop order (head at index 0).
    fn normalise(&mut self) {
        for (chain, head) in self.chains.iter_mut().zip(&mut self.heads) {
            chain.rotate_left(*head);
            *head = 0;
        }
    }

    fn apply_forces(&mut self) {
        for &(chain, position, mask, forced) in &self.forces {
            let words = &mut self.chains[chain];
            let mut index = self.heads[chain] + position;
            if index >= words.len() {
                index -= words.len();
            }
            let word = &mut words[index];
            *word = (*word & !mask) | forced;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScanCore;
    use super::*;
    use casbus_p1500::TestableCore;
    use casbus_tpg::BitVec;

    /// A cheap deterministic word mixer for stimuli.
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x853c_49e6_748f_ea9b;
        x ^= x >> 29;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    /// One shift clock on the packed core and on every scalar twin,
    /// asserting each lane's serial outputs match.
    fn shift_both(
        packed: &mut PackedScanLanes,
        scalars: &mut [ScanCore],
        inputs: &[u64],
        at: &str,
    ) {
        let mut packed_out = vec![0u64; inputs.len()];
        packed.test_clock_lanes(inputs, &mut packed_out);
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let wpi: BitVec = inputs.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let wpo = scalar.test_clock(&wpi);
            for (c, &word) in packed_out.iter().enumerate() {
                assert_eq!(
                    (word >> lane) & 1 == 1,
                    wpo.get(c).unwrap(),
                    "{at} lane {lane} chain {c}"
                );
            }
        }
    }

    /// Asserts every flop of every lane matches its scalar twin, read
    /// through [`PackedScanLanes::chain_word`].
    fn assert_state(packed: &PackedScanLanes, scalars: &[ScanCore], lengths: &[usize], at: &str) {
        for (lane, scalar) in scalars.iter().enumerate() {
            for (c, &len) in lengths.iter().enumerate() {
                for i in 0..len {
                    assert_eq!(
                        (packed.chain_word(c, i) >> lane) & 1 == 1,
                        scalar.chain(c).get(i).unwrap(),
                        "state {at} lane {lane} chain {c} flop {i}"
                    );
                }
            }
        }
    }

    /// Drives a packed core and 64 scalar twins through the same mixed
    /// shift/capture/reset sequence and asserts every lane stays
    /// bit-identical to its scalar twin, faults included. Each round ends
    /// with a shift run over twice the longest chain, so every chain's head
    /// index wraps at least twice between captures, with state reads
    /// mid-run.
    #[test]
    fn every_lane_matches_its_scalar_twin() {
        let lengths = [5usize, 70, 64];
        let longest = *lengths.iter().max().unwrap();
        let mut packed = PackedScanLanes::new("cpu", &lengths);
        let mut scalars: Vec<ScanCore> = (0..64)
            .map(|_| ScanCore::new("cpu", lengths.to_vec()))
            .collect();

        // Distinct defects on some lanes, including two on the same flop
        // with opposite polarities merged into one force word.
        let faults: [(usize, usize, usize, bool); 5] = [
            (0, 0, 2, true),
            (7, 1, 33, false),
            (7, 1, 33, true), // re-inject same lane+flop: last write wins
            (31, 2, 63, true),
            (63, 1, 33, false), // same flop as lane 7, other polarity
        ];
        for &(lane, chain, position, value) in &faults {
            packed.inject_stuck_at(lane, chain, position, value);
            scalars[lane].inject_stuck_at(chain, position, value);
        }

        let mut stamp = 0u64;
        let mut next_inputs = || -> Vec<u64> {
            (0..lengths.len())
                .map(|_| {
                    stamp += 1;
                    mix(stamp)
                })
                .collect()
        };
        for round in 0..3 {
            for cycle in 0..80 {
                let at = format!("round {round} cycle {cycle}");
                shift_both(&mut packed, &mut scalars, &next_inputs(), &at);
                if cycle % 9 == 8 {
                    packed.capture_clock_lanes();
                    scalars.iter_mut().for_each(TestableCore::capture_clock);
                }
            }
            assert_state(&packed, &scalars, &lengths, &format!("round {round}"));
            for cycle in 0..2 * longest + 3 {
                let at = format!("round {round} long run cycle {cycle}");
                shift_both(&mut packed, &mut scalars, &next_inputs(), &at);
                if cycle % 37 == 0 {
                    assert_state(&packed, &scalars, &lengths, &at);
                }
            }
            packed.capture_clock_lanes();
            scalars.iter_mut().for_each(TestableCore::capture_clock);
            assert_state(
                &packed,
                &scalars,
                &lengths,
                &format!("round {round} capture"),
            );
            packed.reset_lanes();
            scalars
                .iter_mut()
                .for_each(casbus_p1500::TestableCore::reset);
            assert_state(&packed, &scalars, &lengths, &format!("round {round} reset"));
        }
    }

    #[test]
    fn forces_reassert_after_every_clock() {
        let mut packed = PackedScanLanes::new("u", &[3]);
        packed.inject_stuck_at(5, 0, 1, true);
        assert_eq!(packed.chain_word(0, 1), 1 << 5, "applied at injection");
        packed.test_clock_lanes(&[0], &mut [0]);
        assert_eq!(packed.chain_word(0, 1) & (1 << 5), 1 << 5, "after shift");
        packed.capture_clock_lanes();
        assert_eq!(packed.chain_word(0, 1) & (1 << 5), 1 << 5, "after capture");
        packed.reset_lanes();
        assert_eq!(packed.chain_word(0, 1), 1 << 5, "after reset");
    }

    #[test]
    fn healthy_lanes_are_untouched_by_other_lanes_faults() {
        let mut packed = PackedScanLanes::new("u", &[4]);
        packed.inject_stuck_at(0, 0, 0, true);
        packed.reset_lanes();
        for i in 0..4 {
            assert_eq!(packed.chain_word(0, i) & !1, 0, "flop {i}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_chain_rejected() {
        let _ = PackedScanLanes::new("u", &[3, 0]);
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn lane_out_of_range_rejected() {
        let mut packed = PackedScanLanes::new("u", &[3]);
        packed.inject_stuck_at(64, 0, 0, true);
    }
}
