//! Lane-parallel word utilities for packed device execution.
//!
//! The packed fleet engine simulates up to 64 independent devices ("lanes")
//! at once by carrying one `u64` per wire or flop, bit `l` belonging to
//! lane `l` — the device axis twin of the PPSFP packing the fault simulator
//! uses for test sequences. Everything here is the glue that moves data
//! between the scalar world (one device, one [`BitVec`] stream per port)
//! and the lane world (one word per observation slot):
//!
//! * [`broadcast`] — replicate one stimulus bit into all 64 lanes,
//! * [`transpose64`] — in-place 64×64 bit-matrix transpose, turning
//!   time-major slot words into lane-major streams,
//! * [`LaneStreams`] — an accumulator that collects one word per port per
//!   observation slot and hands back every lane's streams as the exact
//!   per-port [`BitVec`]s a scalar run would have recorded.
//!
//! The extraction path is what keeps packed signatures bit-identical to the
//! scalar engine: the per-lane `BitVec`s feed the very same signature fold,
//! so a lane cannot drift from the device it represents.

use crate::bits::BitVec;
use crate::poly::Polynomial;

/// Number of lanes one word carries.
pub const LANES: usize = 64;

/// Replicates one bit into every lane: `true` → all-ones, `false` → zero.
#[inline]
#[must_use]
pub fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Transposes a 64×64 bit matrix in place (Hacker's Delight 7-3):
/// afterwards `a[r]` bit `c` holds what `a[c]` bit `r` held before.
///
/// Self-inverse — transposing twice restores the input.
pub fn transpose64(a: &mut [u64; 64]) {
    swap_blocks::<32>(a, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(a, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(a, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(a, 0x3333_3333_3333_3333);
    swap_blocks::<1>(a, 0x5555_5555_5555_5555);
}

/// One transpose stage: within every `2J × 2J` tile, swaps the upper-right
/// and lower-left `J × J` blocks. `mask` selects the low `J` bits of each
/// `2J`-bit group. `J` is a constant so every index is known at compile
/// time.
#[inline(always)]
fn swap_blocks<const J: usize>(a: &mut [u64; 64], mask: u64) {
    for base in (0..64).step_by(2 * J) {
        for k in base..base + J {
            let t = ((a[k] >> J) ^ a[k + J]) & mask;
            a[k + J] ^= t;
            a[k] ^= t << J;
        }
    }
}

/// Time-major observation accumulator for one packed lane group.
///
/// A packed run pushes one slot per observed cycle: `words[port]` carries
/// the 64 lanes' response bits for that port at that cycle. At session end,
/// [`extract_lanes`](Self::extract_lanes) transposes the accumulated slots
/// into every lane's per-port serial streams — exactly the `Vec<BitVec>`
/// the scalar engine's observation window would have built for each
/// device.
///
/// # Examples
///
/// ```
/// use casbus_tpg::lanes::{broadcast, LaneStreams};
///
/// let mut streams = LaneStreams::new(2);
/// streams.push(&[broadcast(true), 0b10]); // port 0: all lanes 1; port 1: lane 1 only
/// streams.push(&[0, 0]);
/// assert_eq!(streams.slots(), 2);
/// let lanes = streams.extract_lanes(2);
/// assert_eq!(lanes[1][0].to_string(), "10"); // LSB-first display: t0=1, t1=0
/// assert_eq!(lanes[1][1].to_string(), "10");
/// assert_eq!(lanes[0][1].to_string(), "00");
/// ```
#[derive(Debug, Clone)]
pub struct LaneStreams {
    ports: usize,
    slots: usize,
    /// Slot-major lane words: `words[slot * ports + port]`.
    words: Vec<u64>,
}

impl LaneStreams {
    /// An empty accumulator over `ports` parallel ports.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        Self::with_capacity(ports, 0)
    }

    /// An empty accumulator over `ports` parallel ports with room for
    /// `slots` observation slots before it reallocates.
    #[must_use]
    pub fn with_capacity(ports: usize, slots: usize) -> Self {
        Self {
            ports,
            slots: 0,
            words: Vec::with_capacity(ports * slots),
        }
    }

    /// Number of ports per slot.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Observation slots accumulated so far.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Appends one observation slot: `words[port]` is the lane word the
    /// port produced this cycle.
    ///
    /// # Panics
    ///
    /// If `words.len()` differs from the port count.
    pub fn push(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.ports, "one word per port");
        self.words.extend_from_slice(words);
        self.slots += 1;
    }

    /// Appends one all-zero observation slot (capture cycles record a zero
    /// placeholder in the scalar window).
    pub fn push_zeros(&mut self) {
        self.words.resize(self.words.len() + self.ports, 0);
        self.slots += 1;
    }

    /// Extracts the per-port serial streams of lanes `0..lanes`:
    /// `extract_lanes(n)[lane][port]` bit `t` is that lane's response at
    /// observation slot `t`.
    ///
    /// Each 64-slot block of each port is transposed once and every
    /// requested lane reads its word from the result, so a full 64-lane
    /// extraction costs one transpose per block, not one per block per lane.
    ///
    /// # Panics
    ///
    /// If `lanes > 64`.
    #[must_use]
    pub fn extract_lanes(&self, lanes: usize) -> Vec<Vec<BitVec>> {
        assert!(lanes <= LANES, "{lanes} lanes exceed the word's {LANES}");
        let mut out: Vec<Vec<BitVec>> = (0..lanes)
            .map(|_| {
                (0..self.ports)
                    .map(|_| BitVec::with_capacity(self.slots))
                    .collect()
            })
            .collect();
        let mut block = [0u64; LANES];
        for first in (0..self.slots).step_by(LANES) {
            let rows = LANES.min(self.slots - first);
            for port in 0..self.ports {
                let column = self.words[first * self.ports + port..]
                    .iter()
                    .step_by(self.ports);
                for (row, &word) in block.iter_mut().zip(column.take(rows)) {
                    *row = word;
                }
                block[rows..].fill(0);
                transpose64(&mut block);
                for (streams, &word) in out.iter_mut().zip(&block) {
                    streams[port].push_word(word, rows);
                }
            }
        }
        out
    }
}

/// Up to 64 lane-parallel MISRs sharing one feedback polynomial — the
/// bit-sliced twin of [`Misr`](crate::Misr) the packed BIST model compresses
/// responses with.
///
/// Where the scalar MISR keeps one bit per register stage, this keeps one
/// *word* per stage: `state[i]` bit `l` is stage `i` of lane `l`'s register.
/// Because every lane shares the polynomial, the shift-down and feedback
/// steps are plain word operations, and [`absorb_lanes`](Self::absorb_lanes)
/// advances all 64 registers in O(width) word ops per clock. Every lane
/// starts from the all-zero state (matching a fresh scalar
/// [`Misr`](crate::Misr)), and a lane whose input words carry exactly a
/// scalar run's bits holds exactly that run's signature.
///
/// # Examples
///
/// ```
/// use casbus_tpg::lanes::{broadcast, LaneMisr};
/// use casbus_tpg::{BitVec, Misr, Polynomial};
///
/// let poly = Polynomial::primitive(8).unwrap();
/// let mut packed = LaneMisr::new(&poly);
/// let mut scalar = Misr::new(poly, 8).unwrap();
///
/// // Absorb the same response in lane 5 and in the scalar twin.
/// let response = 0b1011_0010u64;
/// let words: Vec<u64> = (0..8)
///     .map(|i| if (response >> i) & 1 == 1 { 1u64 << 5 } else { 0 })
///     .collect();
/// packed.absorb_lanes(&words);
/// scalar.absorb(&BitVec::from_u64(response, 8));
/// assert_eq!(packed.lane_state(5), scalar.signature().to_u64());
/// assert_eq!(packed.lane_state(0), 0); // untouched lane stays pristine
/// ```
#[derive(Debug, Clone)]
pub struct LaneMisr {
    /// `state[i]` — lane word of register stage `i`.
    state: Vec<u64>,
    /// Scalar feedback mask: bit `e - 1` set for every polynomial term
    /// `x^e`, `1 <= e <= degree` — identical to the scalar MISR's mask.
    mask: u64,
}

impl LaneMisr {
    /// 64 zero-state MISRs of width `poly.degree()` with `poly` feedback.
    ///
    /// # Panics
    ///
    /// If the polynomial degree is 0 or exceeds 64.
    #[must_use]
    pub fn new(poly: &Polynomial) -> Self {
        let width = poly.degree();
        assert!(
            width >= 1 && width <= LANES as u32,
            "MISR width {width} out of range"
        );
        let mut mask = 0u64;
        for exponent in 1..=width {
            if poly.has_term(exponent) {
                mask |= 1 << (exponent - 1);
            }
        }
        Self {
            state: vec![0; width as usize],
            mask,
        }
    }

    /// Register width in bits (the polynomial degree).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.state.len() as u32
    }

    /// Clocks all 64 lanes once, each lane compressing its bits of
    /// `inputs`: `inputs[i]` bit `l` is lane `l`'s input to stage `i`.
    ///
    /// Word-for-bit identical to [`Misr::absorb`](crate::Misr::absorb): the
    /// register shifts down one stage, the outgoing bit feeds back into the
    /// polynomial taps, and the inputs XOR into the low stages.
    ///
    /// # Panics
    ///
    /// If `inputs` is empty or longer than the register.
    pub fn absorb_lanes(&mut self, inputs: &[u64]) {
        assert!(!inputs.is_empty(), "MISR needs at least one input");
        assert!(
            inputs.len() <= self.state.len(),
            "MISR accepts at most {} parallel inputs, got {}",
            self.state.len(),
            inputs.len()
        );
        let out = self.state[0];
        let width = self.state.len();
        for i in 0..width - 1 {
            self.state[i] = self.state[i + 1];
        }
        self.state[width - 1] = 0;
        let mut taps = self.mask;
        while taps != 0 {
            let stage = taps.trailing_zeros() as usize;
            self.state[stage] ^= out;
            taps &= taps - 1;
        }
        for (stage, &word) in self.state.iter_mut().zip(inputs) {
            *stage ^= word;
        }
    }

    /// The register contents as one lane word per stage: `state_words()[i]`
    /// bit `l` is stage `i` of lane `l`.
    #[must_use]
    pub fn state_words(&self) -> &[u64] {
        &self.state
    }

    /// Lane `lane`'s register as a scalar value, bit `i` holding stage `i`
    /// — equal to the scalar twin's `signature().to_u64()`.
    ///
    /// # Panics
    ///
    /// If `lane >= 64`.
    #[must_use]
    pub fn lane_state(&self, lane: usize) -> u64 {
        assert!(lane < LANES, "lane {lane} out of range");
        self.state
            .iter()
            .enumerate()
            .fold(0u64, |acc, (stage, &word)| {
                acc | (((word >> lane) & 1) << stage)
            })
    }

    /// Returns every lane to the all-zero power-on state.
    pub fn reset_lanes(&mut self) {
        self.state.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misr::Misr;

    /// A cheap deterministic word mixer for test data.
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x853c_49e6_748f_ea9b;
        x ^= x >> 29;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    #[test]
    fn broadcast_fills_or_clears_all_lanes() {
        assert_eq!(broadcast(true), u64::MAX);
        assert_eq!(broadcast(false), 0);
    }

    #[test]
    fn transpose_moves_single_bits_to_mirrored_coordinates() {
        for (r, c) in [(0usize, 0usize), (0, 63), (63, 0), (17, 42), (5, 5)] {
            let mut m = [0u64; 64];
            m[r] = 1u64 << c;
            transpose64(&mut m);
            for (row, &word) in m.iter().enumerate() {
                let expected = if row == c { 1u64 << r } else { 0 };
                assert_eq!(word, expected, "bit ({r},{c}), row {row}");
            }
        }
    }

    #[test]
    fn transpose_is_self_inverse_on_dense_data() {
        let original: Vec<u64> = (0..64).map(mix).collect();
        let mut m = [0u64; 64];
        m.copy_from_slice(&original);
        transpose64(&mut m);
        transpose64(&mut m);
        assert_eq!(m.as_slice(), original.as_slice());
    }

    #[test]
    fn lane_streams_match_scalar_bit_accounting() {
        // 3 ports, 130 slots (crosses two word boundaries), 64 lanes: every
        // lane's extracted stream must equal the bit-by-bit scalar view.
        let ports = 3;
        let slots = 130;
        let mut streams = LaneStreams::new(ports);
        let word_at = |slot: usize, port: usize| mix((slot * ports + port) as u64);
        for slot in 0..slots {
            let words: Vec<u64> = (0..ports).map(|p| word_at(slot, p)).collect();
            streams.push(&words);
        }
        assert_eq!(streams.slots(), slots);
        assert_eq!(streams.ports(), ports);

        let lanes = streams.extract_lanes(LANES);
        for lane in [0usize, 1, 31, 63] {
            let got = &lanes[lane];
            assert_eq!(got.len(), ports);
            for (port, stream) in got.iter().enumerate() {
                assert_eq!(stream.len(), slots);
                for slot in 0..slots {
                    let expected = (word_at(slot, port) >> lane) & 1 == 1;
                    assert_eq!(
                        stream.get(slot),
                        Some(expected),
                        "lane {lane} port {port} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_misr_matches_64_scalar_misrs() {
        for width in [4u32, 8, 16, 32] {
            let poly = Polynomial::primitive(width).expect("supported width");
            let mut packed = LaneMisr::new(&poly);
            let mut scalars: Vec<Misr> = (0..LANES)
                .map(|_| Misr::new(poly.clone(), width).expect("valid MISR"))
                .collect();
            assert_eq!(packed.width(), width);
            let mut stamp = u64::from(width) << 32;
            for clock in 0..100 {
                let inputs: Vec<u64> = (0..width)
                    .map(|_| {
                        stamp += 1;
                        mix(stamp)
                    })
                    .collect();
                packed.absorb_lanes(&inputs);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let bits: BitVec = inputs.iter().map(|w| (w >> lane) & 1 == 1).collect();
                    scalar.absorb(&bits);
                    assert_eq!(
                        packed.lane_state(lane),
                        scalar.signature().to_u64(),
                        "width {width} clock {clock} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_misr_accepts_fewer_inputs_than_stages() {
        // A 2-input 8-stage MISR: inputs land on the low stages only,
        // exactly as the scalar twin injects them.
        let poly = Polynomial::primitive(8).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        let mut scalar = Misr::new(poly, 2).expect("valid MISR");
        for clock in 0..64u64 {
            let inputs = [mix(clock), mix(clock ^ 0xABCD)];
            packed.absorb_lanes(&inputs);
            let bits: BitVec = inputs.iter().map(|w| (w >> 13) & 1 == 1).collect();
            scalar.absorb(&bits);
            assert_eq!(
                packed.lane_state(13),
                scalar.signature().to_u64(),
                "clock {clock}"
            );
        }
    }

    #[test]
    fn lane_misr_reset_restores_power_on_state() {
        let poly = Polynomial::primitive(12).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        let pristine = packed.clone();
        let inputs: Vec<u64> = (0..12).map(|i| mix(i as u64)).collect();
        packed.absorb_lanes(&inputs);
        assert_ne!(packed.state_words(), pristine.state_words());
        packed.reset_lanes();
        assert_eq!(packed.state_words(), pristine.state_words());
        assert_eq!(packed.lane_state(7), 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn lane_misr_rejects_too_many_inputs() {
        let poly = Polynomial::primitive(4).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        packed.absorb_lanes(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn lane_misr_rejects_empty_input() {
        let poly = Polynomial::primitive(4).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        packed.absorb_lanes(&[]);
    }

    #[test]
    fn push_zeros_records_a_blank_slot() {
        let mut streams = LaneStreams::new(2);
        streams.push(&[u64::MAX, u64::MAX]);
        streams.push_zeros();
        streams.push(&[u64::MAX, 0]);
        let lanes = streams.extract_lanes(10);
        assert_eq!(lanes[9][0].to_string(), "101");
        assert_eq!(lanes[9][1].to_string(), "100");
    }

    #[test]
    fn extract_lanes_matches_pushed_words_bit_by_bit() {
        // Slot counts straddle the 64-slot block boundary (empty, partial,
        // exact, one over, two blocks plus two); lane counts cover one lane,
        // a ragged group, and a full word.
        let ports = 2;
        for slots in [0usize, 1, 63, 64, 65, 130] {
            let mut streams = LaneStreams::new(ports);
            let word_at = |slot: usize, port: usize| mix((slot * ports + port) as u64 ^ 0x5EED);
            for slot in 0..slots {
                let words: Vec<u64> = (0..ports).map(|p| word_at(slot, p)).collect();
                streams.push(&words);
            }
            for n_lanes in [1usize, 17, 64] {
                let lanes = streams.extract_lanes(n_lanes);
                assert_eq!(lanes.len(), n_lanes, "slots {slots}");
                for (lane, per_port) in lanes.iter().enumerate() {
                    assert_eq!(per_port.len(), ports);
                    for (port, stream) in per_port.iter().enumerate() {
                        assert_eq!(stream.len(), slots, "slots {slots} lane {lane}");
                        for slot in 0..slots {
                            assert_eq!(
                                stream.get(slot),
                                Some((word_at(slot, port) >> lane) & 1 == 1),
                                "slots {slots} lanes {n_lanes} lane {lane} port {port} slot {slot}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn extract_lanes_rejects_more_than_a_word() {
        let _ = LaneStreams::new(1).extract_lanes(65);
    }
}
