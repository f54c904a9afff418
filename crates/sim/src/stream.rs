//! Stream derivation: where every per-entity RNG seed of the workspace
//! comes from.
//!
//! The paper's model draws each node's choices and each message's loss
//! independently (Sections 4.1 and 5), and Lemma 6.6 (`dup = ℓ + del`)
//! leans on loss being independent of the protocol's own choices. The
//! engines that cannot share one generator — the sharded engine, the rumor
//! layer, the streaming topology builder, the daemon — give each entity its
//! own [`StdRng`](rand::rngs::StdRng), seeded by [`stream_seed`]: FNV-1a 64
//! over the fixed 25-byte little-endian layout `seed ‖ tag ‖ a ‖ b`. The
//! tag keeps kinds of stream apart; `a` and `b` are the entity's
//! coordinates. Every tag in use is declared here:
//!
//! | tag | constant | coordinates `(a, b)` | user |
//! |---|---|---|---|
//! | `a` | [`ACTION`] | (node id, round) | `ParSimulation` action phase: initiate, loss, delay |
//! | `d` | [`DELIVERY`] | (delivery round, sorted bucket position) | `ParSimulation` receive |
//! | `r` | [`REPLY`] | (delivery round · 16 + wave, bucket position) | `ParSimulation` reply hops |
//! | `c` | [`CONTROL`] | (0, 0) | `ParSimulation::join_via` sponsor shuffles |
//! | `g` | [`RUMOR`] | (node id, round) | `BroadcastLayer` push targets, pull partner, loss coins |
//! | `h` | [`RUMOR_CHANNEL`] | (node id, round) | `BroadcastLayer` Gilbert–Elliott state step |
//! | `t` | [`TOPOLOGY`] | (node id, 0) | `topology::random_iter` targets |
//! | `n` | [`DAEMON_NODE`] | (node id, 0) | a daemon node's protocol draws |
//! | `l` | [`DAEMON_LOSS`] | (node id, 0) | a daemon node's loss draws: one per send, against the daemon's fault schedule |
//! | `k` | [`DAEMON_CONTROL`] | (0, 0) | the daemon loop: join sponsors, leave victims |
//!
//! The central-entity engine (`FlatSimulation`) runs one stream, seeded
//! with the simulation seed itself.
//!
//! The hash is computed as the state after the prefix `seed ‖ tag`, then
//! absorb `a`, then absorb `b`. Absorbing a word hashes its significant
//! low bytes one at a time and folds its run of high zero bytes into one
//! multiply: `(h ⊕ 0)·P = h·P`, so `k` zero bytes take `h` to `h·Pᵏ`
//! (`P` the FNV prime). The bytes hashed, and so every seed, are those of
//! the 25-byte layout; a caller that derives many streams under one
//! prefix (`ParSimulation`'s action and delivery phases) computes the
//! prefix once.
//!
//! [`fnv1a64`] is the workspace's one FNV-1a. Besides [`stream_seed`] it
//! hashes, with no tag: a sweep's replicate seeds (the text
//! `"<base_seed>/<cell key>/<replicate>"`, `sandf_bench::sweep`), the
//! per-link and per-node maps of [`PhaseFault::PerLink`](crate::PhaseFault::PerLink)
//! and [`PhaseFault::Capacity`](crate::PhaseFault::Capacity) (the salt and ids as
//! little-endian words), and the digests
//! [`BroadcastLayer::fingerprint`](crate::BroadcastLayer::fingerprint) and
//! `sandf_bench::scenario::tsv_fingerprint`.
//!
//! Independence is tested, not assumed: this module's tests derive every
//! tag's seeds over the coordinates the workspace uses and count seed
//! collisions (zero), test each tag's first draws for uniformity (χ²) and
//! adjacent streams for correlation, all at p = 10⁻⁶ on fixed seeds.

/// Par action phase: a node's stream in a round.
pub const ACTION: u8 = b'a';
/// Par delivery phase: a message's stream at its sorted bucket position.
pub const DELIVERY: u8 = b'd';
/// Par reply routing: one hop of a reply wave.
pub const REPLY: u8 = b'r';
/// Par control plane: its [`Engine::join_via`](crate::Engine::join_via) sponsor shuffles.
pub const CONTROL: u8 = b'c';
/// Rumor gossip draws: push targets, pull partner, per-message loss.
pub const RUMOR: u8 = b'g';
/// The per-round rumor-channel (Gilbert–Elliott) state transition.
pub const RUMOR_CHANNEL: u8 = b'h';
/// The per-node bootstrap draws of [`topology::random_iter`](crate::topology::random_iter).
pub const TOPOLOGY: u8 = b't';
/// A daemon node's protocol draws (initiate and receive).
pub const DAEMON_NODE: u8 = b'n';
/// A daemon node's loss draws: one per send, against the daemon's one
/// fault schedule (base Section 4.1 loss, or an injected model in its
/// place).
pub const DAEMON_LOSS: u8 = b'l';
/// The daemon loop's control draws (join sponsors and delays, leave victims).
pub const DAEMON_CONTROL: u8 = b'k';

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the powers 0 through 8: absorbing `k` zero bytes
/// multiplies the FNV-1a state by the `k`-th.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// FNV-1a 64 over `bytes`.
#[inline]
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fold(FNV_OFFSET_BASIS, bytes)
}

/// The FNV-1a state `hash` after absorbing `bytes`.
#[inline]
fn fold(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(hash, |hash, byte| (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
}

/// The FNV-1a state after the layout's prefix `seed ‖ tag`, shared by
/// every stream of `tag` under `seed`.
#[inline]
#[must_use]
pub(crate) fn stream_prefix(seed: u64, tag: u8) -> u64 {
    fnv1a64(seed.to_le_bytes().into_iter().chain([tag]))
}

/// The FNV-1a state `hash` after absorbing `word`'s eight little-endian
/// bytes: the significant low bytes one by one, the high zero bytes as one
/// multiply by a power of the prime.
#[inline]
#[must_use]
pub(crate) fn absorb(hash: u64, word: u64) -> u64 {
    let len = 8 - word.leading_zeros() as usize / 8;
    fold(hash, word.to_le_bytes().into_iter().take(len)).wrapping_mul(PRIME_POWERS[8 - len])
}

/// The seed of stream `tag` at coordinates `(a, b)` under `seed`: FNV-1a
/// over the fixed 25-byte little-endian layout `seed ‖ tag ‖ a ‖ b` (no
/// allocation on the hot path).
#[inline]
#[must_use]
pub fn stream_seed(seed: u64, tag: u8, a: u64, b: u64) -> u64 {
    absorb(absorb(stream_prefix(seed, tag), a), b)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;

    /// Every tag declared above, in the order of the module table.
    const TAGS: [u8; 10] = [
        ACTION,
        DELIVERY,
        REPLY,
        CONTROL,
        RUMOR,
        RUMOR_CHANNEL,
        TOPOLOGY,
        DAEMON_NODE,
        DAEMON_LOSS,
        DAEMON_CONTROL,
    ];

    /// The simulation seeds the battery derives under: the benchmark's two
    /// pinned seeds.
    const SEEDS: [u64; 2] = [42, 2009];

    /// χ² with 255 degrees of freedom exceeds this with probability 10⁻⁶
    /// (Wilson–Hilferty: 377.25).
    const CHI2_255: f64 = 377.0;

    /// A standard normal exceeds this in absolute value with probability
    /// 10⁻⁶.
    const Z_TWO_SIDED: f64 = 4.89;

    /// The coordinate window of `tag`: `a` below the first extent, `b`
    /// below the second. Node-and-round tags get 2¹⁰ ids × 2⁶ rounds, the
    /// per-node tags every id below 10⁴, the control tags their one point.
    fn extent(tag: u8) -> (u64, u64) {
        match tag {
            CONTROL | DAEMON_CONTROL => (1, 1),
            TOPOLOGY | DAEMON_NODE | DAEMON_LOSS => (10_000, 1),
            _ => (1 << 10, 1 << 6),
        }
    }

    /// The seeds of `tag` under `seed`, `a`-major, as a grid with `b`
    /// varying fastest.
    fn grid(seed: u64, tag: u8) -> Vec<u64> {
        let (na, nb) = extent(tag);
        (0..na).flat_map(|a| (0..nb).map(move |b| stream_seed(seed, tag, a, b))).collect()
    }

    /// The first draw of the stream `seed` seeds.
    fn first_draw(seed: u64) -> u64 {
        StdRng::seed_from_u64(seed).next_u64()
    }

    /// Pearson's χ² of the top byte of `draws` against 256 equal bins.
    fn chi2_top_byte(draws: &[u64]) -> f64 {
        let mut bins = [0u64; 256];
        for &x in draws {
            bins[(x >> 56) as usize] += 1;
        }
        let expected = draws.len() as f64 / 256.0;
        bins.iter().map(|&o| (o as f64 - expected).powi(2) / expected).sum()
    }

    /// `√N ·` Pearson correlation of the unit-interval images of paired
    /// draws: standard normal under independence.
    fn scaled_correlation(pairs: &[(u64, u64)]) -> f64 {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let n = pairs.len() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &(x, y) in pairs {
            let (x, y) = (unit(x), unit(y));
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy - sx * sy / n;
        let r = cov / ((sxx - sx * sx / n) * (syy - sy * sy / n)).sqrt();
        r * n.sqrt()
    }

    /// The engines' raw seeds: the central-entity engines seed their one
    /// stream with the simulation seed itself, and tests and tables use
    /// small consecutive integers.
    fn raw_seeds() -> std::ops::Range<u64> {
        0..1 << 16
    }

    /// The derivation's definition: FNV-1a over the 25-byte layout, byte
    /// by byte.
    fn bytewise(seed: u64, tag: u8, a: u64, b: u64) -> u64 {
        let mut buf = [0u8; 25];
        buf[..8].copy_from_slice(&seed.to_le_bytes());
        buf[8] = tag;
        buf[9..17].copy_from_slice(&a.to_le_bytes());
        buf[17..].copy_from_slice(&b.to_le_bytes());
        fnv1a64(buf)
    }

    /// A random word of a random byte length (a uniform word shifted right
    /// by 0 to 63 bits), so every run of high zero bytes occurs.
    fn word_of_any_length(rng: &mut StdRng) -> u64 {
        rng.next_u64() >> rng.gen_range(0..64)
    }

    #[test]
    fn prefix_and_fold_hash_the_25_byte_layout() {
        // Zero to eight significant bytes, and the u32 word boundary.
        const EDGES: [u64; 6] = [0, 255, 256, (1 << 32) - 1, 1 << 32, u64::MAX];
        let mut rng = StdRng::seed_from_u64(25);
        for tag in TAGS {
            for seed in SEEDS {
                for a in EDGES {
                    for b in EDGES {
                        let want = bytewise(seed, tag, a, b);
                        assert_eq!(stream_seed(seed, tag, a, b), want, "tag {tag}, a {a}, b {b}");
                    }
                }
            }
            for _ in 0..10_000 {
                let seed = word_of_any_length(&mut rng);
                let (a, b) = (word_of_any_length(&mut rng), word_of_any_length(&mut rng));
                let want = bytewise(seed, tag, a, b);
                assert_eq!(
                    stream_seed(seed, tag, a, b),
                    want,
                    "seed {seed}, tag {tag}, a {a}, b {b}"
                );
            }
        }
    }

    #[test]
    fn tags_are_distinct() {
        let mut tags = TAGS.to_vec();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), TAGS.len(), "a stream tag is declared twice");
    }

    #[test]
    fn no_two_streams_share_a_seed() {
        let mut all: Vec<u64> = SEEDS
            .iter()
            .flat_map(|&seed| TAGS.iter().flat_map(move |&tag| grid(seed, tag)))
            .collect();
        // The central-entity engines' streams, seeded with the seed itself.
        all.extend(SEEDS);
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        let collisions = total - all.len();
        assert_eq!(collisions, 0, "{collisions} collisions among {total} seeds");
    }

    #[test]
    fn first_draws_are_uniform_per_tag() {
        for tag in TAGS.into_iter().filter(|&tag| extent(tag) != (1, 1)) {
            let draws: Vec<u64> = grid(SEEDS[0], tag).into_iter().map(first_draw).collect();
            let chi2 = chi2_top_byte(&draws);
            assert!(chi2 < CHI2_255, "tag {:?}: χ² = {chi2:.1} over {}", tag as char, draws.len());
        }
        let draws: Vec<u64> = raw_seeds().map(first_draw).collect();
        let chi2 = chi2_top_byte(&draws);
        assert!(chi2 < CHI2_255, "raw seeds: χ² = {chi2:.1}");
    }

    #[test]
    fn adjacent_streams_are_uncorrelated() {
        for tag in TAGS {
            let (na, nb) = extent(tag);
            let draws: Vec<u64> = grid(SEEDS[1], tag).into_iter().map(first_draw).collect();
            let at = |a: u64, b: u64| draws[(a * nb + b) as usize];
            // Each stream's first draw beside its neighbour's `(da, db)` away.
            let neighbours = |da: u64, db: u64| -> Vec<(u64, u64)> {
                (0..na - da)
                    .flat_map(|a| (0..nb - db).map(move |b| (at(a, b), at(a + da, b + db))))
                    .collect()
            };
            for (axis, pairs) in [("a", neighbours(1, 0)), ("b", neighbours(0, 1))] {
                if pairs.len() < 2 {
                    continue;
                }
                let z = scaled_correlation(&pairs);
                assert!(
                    z.abs() < Z_TWO_SIDED,
                    "tag {:?}, {axis} vs {axis}+1: z = {z:.2}",
                    tag as char
                );
            }
        }
        let draws: Vec<u64> = raw_seeds().map(first_draw).collect();
        let pairs: Vec<(u64, u64)> = draws.windows(2).map(|w| (w[0], w[1])).collect();
        let z = scaled_correlation(&pairs);
        assert!(z.abs() < Z_TWO_SIDED, "raw seeds s vs s+1: z = {z:.2}");
    }
}
