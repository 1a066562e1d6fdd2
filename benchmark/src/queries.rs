//! Seeded query generator for the serving phase.
//!
//! Everything the engine receives in a query phase — the spectrum pool,
//! each client's query order and the hot-swap schedule — is generated
//! here from `--seed` before the clock starts, with the benchmark's own
//! generator: the program under test sees only the generated inputs, and
//! a change to the program's RNGs cannot change them.

/// SplitMix64: a tiny, well-mixed generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a client picks the next spectrum from the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every pool entry equally likely.
    Uniform,
    /// Entry of rank `r` (1-based) with probability ∝ `1 / r^s`.
    Zipf(f64),
}

/// One serving-phase traffic mix. Closed loop: each client sends its
/// next query only after the previous answer arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub name: &'static str,
    /// Concurrent closed-loop clients (one OS thread each).
    pub clients: usize,
    /// Distinct spectra in the pool the clients draw from.
    pub pool: usize,
    pub popularity: Popularity,
    /// Queries per client.
    pub queries_per_client: usize,
    /// Client 0 hot-swaps a pre-captured next-version snapshot into the
    /// engine after every this many of its own queries.
    pub install_every: Option<usize>,
    /// Responses kept and checked bitwise against the single-version
    /// reference after the timed section: every `verify_every`-th.
    pub verify_every: usize,
}

impl Mix {
    pub fn total_queries(&self) -> usize {
        self.clients * self.queries_per_client
    }

    /// Hot-swaps client 0 performs in one query phase.
    pub fn installs(&self) -> usize {
        match self.install_every {
            // No install after the final query: nothing would observe it.
            Some(every) => (self.queries_per_client - 1) / every,
            None => 0,
        }
    }
}

/// One step of a client's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query the pool entry with this index.
    Query(u32),
    /// Install the pre-captured snapshot with this ordinal (0-based).
    Install(u32),
}

/// `pool` encoded spectra of `dim` values each, uniform in `[-1, 1)` —
/// the range `EncodeConfig::encode_spectrum` maps log-intensities to.
pub fn spectrum_pool(seed: u64, pool: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed ^ 0x5EC7_0000_0000_0001);
    (0..pool)
        .map(|_| {
            (0..dim)
                .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
                .collect()
        })
        .collect()
}

/// Inverse-CDF sampler over pool indices.
struct Sampler {
    /// Cumulative probabilities; empty for the uniform case.
    cdf: Vec<f64>,
    pool: usize,
}

impl Sampler {
    fn new(popularity: Popularity, pool: usize) -> Self {
        let cdf = match popularity {
            Popularity::Uniform => Vec::new(),
            Popularity::Zipf(s) => {
                let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
        };
        Self { cdf, pool }
    }

    fn draw(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64();
        let idx = if self.cdf.is_empty() {
            (u * self.pool as f64) as usize
        } else {
            self.cdf.partition_point(|&c| c <= u)
        };
        idx.min(self.pool - 1) as u32
    }
}

/// The full script of every client for one query phase: the same seed
/// always gives the same scripts.
pub fn client_scripts(mix: &Mix, seed: u64) -> Vec<Vec<Op>> {
    let sampler = Sampler::new(mix.popularity, mix.pool);
    (0..mix.clients)
        .map(|client| {
            let mut rng = SplitMix64::new(
                seed ^ 0xC11E_0000_0000_0000 ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            );
            let mut script = Vec::with_capacity(mix.queries_per_client + mix.installs());
            let mut installs = 0u32;
            for q in 0..mix.queries_per_client {
                script.push(Op::Query(sampler.draw(&mut rng)));
                let done = q + 1;
                if let (0, Some(every)) = (client, mix.install_every) {
                    if done % every == 0 && done < mix.queries_per_client {
                        script.push(Op::Install(installs));
                        installs += 1;
                    }
                }
            }
            script
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SKEW: Mix = Mix {
        name: "skew",
        clients: 2,
        pool: 256,
        popularity: Popularity::Zipf(1.0),
        queries_per_client: 4000,
        install_every: None,
        verify_every: 1,
    };

    const SWAP: Mix = Mix {
        name: "swap",
        clients: 2,
        pool: 4096,
        popularity: Popularity::Uniform,
        queries_per_client: 1000,
        install_every: Some(125),
        verify_every: 8,
    };

    #[test]
    fn same_seed_same_scripts_and_pool() {
        for mix in [SKEW, SWAP] {
            assert_eq!(client_scripts(&mix, 7), client_scripts(&mix, 7));
            assert_ne!(client_scripts(&mix, 7), client_scripts(&mix, 8));
        }
        assert_eq!(spectrum_pool(7, 16, 16), spectrum_pool(7, 16, 16));
        assert_ne!(spectrum_pool(7, 16, 16), spectrum_pool(8, 16, 16));
        let pool = spectrum_pool(3, 64, 16);
        assert_eq!(pool.len(), 64);
        assert!(pool
            .iter()
            .all(|s| s.len() == 16 && s.iter().all(|v| (-1.0..1.0).contains(v))));
    }

    #[test]
    fn clients_draw_different_sequences() {
        let scripts = client_scripts(&SKEW, 1);
        assert_eq!(scripts.len(), 2);
        assert_ne!(scripts[0], scripts[1]);
        assert!(scripts.iter().all(|s| s.len() == 4000));
    }

    #[test]
    fn zipf_is_skewed_and_stays_in_the_pool() {
        let scripts = client_scripts(&SKEW, 11);
        let mut hits = vec![0u32; SKEW.pool];
        for op in scripts.iter().flatten() {
            match op {
                Op::Query(i) => hits[*i as usize] += 1,
                Op::Install(_) => panic!("skew never installs"),
            }
        }
        let total: u32 = hits.iter().sum();
        assert_eq!(total as usize, SKEW.total_queries());
        // H(256) ≈ 6.12, so rank 1 carries ≈ 16 % of the mass and the
        // top 64 ranks ≈ 77 % — what makes a 64-entry cache useful.
        let top1 = hits[0] as f64 / total as f64;
        let top64: u32 = hits[..64].iter().sum();
        assert!((0.13..0.20).contains(&top1), "rank-1 share {top1}");
        let share = top64 as f64 / total as f64;
        assert!((0.72..0.82).contains(&share), "top-64 share {share}");
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
    }

    #[test]
    fn uniform_covers_the_pool_evenly() {
        let mix = Mix {
            pool: 16,
            queries_per_client: 8000,
            install_every: None,
            ..SWAP
        };
        let mut hits = [0u32; 16];
        for op in client_scripts(&mix, 5).iter().flatten() {
            if let Op::Query(i) = op {
                hits[*i as usize] += 1;
            }
        }
        for h in hits {
            assert!((800..1200).contains(&h), "uniform bucket count {h}");
        }
    }

    #[test]
    fn swap_schedule_installs_in_order_on_client_zero_only() {
        let scripts = client_scripts(&SWAP, 3);
        let installs: Vec<(usize, u32)> = scripts[0]
            .iter()
            .enumerate()
            .filter_map(|(pos, op)| match op {
                Op::Install(k) => Some((pos, *k)),
                Op::Query(_) => None,
            })
            .collect();
        assert_eq!(installs.len(), SWAP.installs());
        assert_eq!(SWAP.installs(), 7, "after queries 125, 250, … 875");
        for (n, (pos, k)) in installs.iter().enumerate() {
            assert_eq!(*k as usize, n, "ordinals count up");
            // n earlier installs sit before this one in the script.
            assert_eq!(*pos, 125 * (n + 1) + n);
        }
        assert!(scripts[1].iter().all(|op| matches!(op, Op::Query(_))));
        assert_eq!(scripts[1].len(), 1000);
    }
}
