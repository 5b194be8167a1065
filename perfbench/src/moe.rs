//! The MoE layer model: a seeded Zipf-skewed token routing, the token
//! layout on the wire, the expert compute, and the byte-exact checks.
//!
//! The launcher draws everything from the seed ([`MoeInput::generate`])
//! and writes it to a file; ranks read the generated token pools and
//! per-layer expert assignments and never see the seed.
//!
//! Routing per layer: expert popularity is Zipf(`ZIPF_S`) over a
//! per-layer random permutation of the experts; each source rank
//! activates `ACTIVE` experts drawn by popularity without replacement
//! (top-k batch sparsity) and routes each of its tokens to one of them
//! by popularity. With `TOKENS` tokens of `TOKEN_BYTES` bytes, a remote
//! block is empty in about one layer in ten (a skipped pair), under the
//! 8 KiB eager threshold in about one in fifteen, and above the 64 KiB
//! collective chunk in about half — so hot blocks take the chunked
//! rendezvous path and cold ones the eager path.

use std::io::{Read, Write};

pub const EXPERTS: usize = 16;
pub const ACTIVE: usize = 3;
pub const ZIPF_S: f64 = 2.0;
pub const TOKENS: usize = 2048;
pub const TOKEN_BYTES: usize = 128;
pub const LAYERS: usize = 256;
/// Bytes of each token the sender stamps: expert (u16), source rank
/// (u16), token index (u32).
pub const HDR: usize = 8;

const MAGIC: &[u8; 8] = b"PBMOE001";

/// splitmix64: a small seeded generator (same stream on every host).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Picks an index of `weights` with probability proportional to it.
fn pick(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.unit() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x < 0.0 {
            return i;
        }
    }
    weights.iter().rposition(|&w| w > 0.0).unwrap_or(0)
}

/// Everything the ranks receive: token pools and per-layer routing.
#[derive(Debug, PartialEq)]
pub struct MoeInput {
    pub nranks: usize,
    pub layers: usize,
    pub tokens: usize,
    pub token_bytes: usize,
    pub experts: usize,
    /// Per rank, `tokens * token_bytes` bytes of token payload.
    pub pools: Vec<Vec<u8>>,
    /// Per `layer * nranks + rank`, the expert of each token.
    pub routes: Vec<Vec<u8>>,
}

impl MoeInput {
    pub fn generate(seed: u64, nranks: usize, layers: usize, tokens: usize) -> MoeInput {
        let mut rng = Rng::new(seed);
        let pools = (0..nranks)
            .map(|_| (0..tokens * TOKEN_BYTES).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut routes = Vec::with_capacity(layers * nranks);
        for _ in 0..layers {
            let mut perm: Vec<usize> = (0..EXPERTS).collect();
            for i in (1..EXPERTS).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            let mut pop = vec![0.0; EXPERTS];
            for (k, &e) in perm.iter().enumerate() {
                pop[e] = 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            }
            for _ in 0..nranks {
                let mut left = pop.clone();
                let mut active = vec![0.0; EXPERTS];
                for _ in 0..ACTIVE {
                    let e = pick(&mut rng, &left);
                    active[e] = pop[e];
                    left[e] = 0.0;
                }
                routes.push((0..tokens).map(|_| pick(&mut rng, &active) as u8).collect());
            }
        }
        MoeInput {
            nranks,
            layers,
            tokens,
            token_bytes: TOKEN_BYTES,
            experts: EXPERTS,
            pools,
            routes,
        }
    }

    /// The rank hosting expert `e`.
    pub fn owner(&self, e: u8) -> usize {
        e as usize * self.nranks / self.experts
    }

    pub fn route(&self, layer: usize, rank: usize) -> &[u8] {
        &self.routes[layer * self.nranks + rank]
    }

    /// Fills `out` with `src`'s tokens of `layer`, grouped by owning
    /// rank in token order and stamped with their header, and returns
    /// the per-rank byte counts. `dst_filter` keeps only tokens for one
    /// destination (the receiver's expectation of a source's block).
    pub fn assemble(
        &self,
        layer: usize,
        src: usize,
        dst_filter: Option<usize>,
        out: &mut Vec<u8>,
    ) -> Vec<usize> {
        let route = self.route(layer, src);
        let tb = self.token_bytes;
        let mut counts = vec![0usize; self.nranks];
        out.clear();
        for (dst, count) in counts.iter_mut().enumerate() {
            if dst_filter.is_some_and(|f| f != dst) {
                continue;
            }
            for (t, &e) in route.iter().enumerate() {
                if self.owner(e) != dst {
                    continue;
                }
                let start = out.len();
                out.extend_from_slice(&self.pools[src][t * tb..(t + 1) * tb]);
                stamp(&mut out[start..start + HDR], e, src, t);
                *count += tb;
            }
        }
        counts
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(MAGIC)?;
        for v in [self.nranks, self.layers, self.tokens, self.token_bytes, self.experts] {
            w.write_all(&(v as u64).to_le_bytes())?;
        }
        for p in &self.pools {
            w.write_all(p)?;
        }
        for r in &self.routes {
            w.write_all(r)?;
        }
        w.flush()
    }

    pub fn read(path: &std::path::Path) -> std::io::Result<MoeInput> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed moe input");
        if buf.len() < 48 || &buf[..8] != MAGIC {
            return Err(bad());
        }
        let word = |i: usize| {
            u64::from_le_bytes(buf[8 + 8 * i..16 + 8 * i].try_into().expect("8-byte field"))
        };
        let (nranks, layers, tokens, token_bytes, experts) = (
            word(0) as usize,
            word(1) as usize,
            word(2) as usize,
            word(3) as usize,
            word(4) as usize,
        );
        let pool_len = tokens.checked_mul(token_bytes).ok_or_else(bad)?;
        let want = nranks
            .checked_mul(pool_len)
            .zip(layers.checked_mul(nranks).and_then(|n| n.checked_mul(tokens)))
            .and_then(|(p, r)| p.checked_add(r)?.checked_add(48));
        if want != Some(buf.len()) || experts == 0 || experts > 256 {
            return Err(bad());
        }
        let mut off = 48;
        let mut take = |n: usize| {
            let v = buf[off..off + n].to_vec();
            off += n;
            v
        };
        let pools = (0..nranks).map(|_| take(pool_len)).collect();
        let routes = (0..layers * nranks).map(|_| take(tokens)).collect();
        Ok(MoeInput { nranks, layers, tokens, token_bytes, experts, pools, routes })
    }
}

fn stamp(hdr: &mut [u8], expert: u8, src: usize, t: usize) {
    hdr[0..2].copy_from_slice(&(expert as u16).to_le_bytes());
    hdr[2..4].copy_from_slice(&(src as u16).to_le_bytes());
    hdr[4..8].copy_from_slice(&(t as u32).to_le_bytes());
}

/// The expert of a stamped token.
pub fn token_expert(tok: &[u8]) -> u8 {
    tok[0]
}

/// The expert compute: every payload byte through an expert-specific
/// bijection (`b * (2e + 1) + e` mod 256); the header is carried over.
pub fn compute(input: &[u8], out: &mut Vec<u8>, token_bytes: usize) {
    out.clear();
    out.extend_from_slice(input);
    for tok in out.chunks_exact_mut(token_bytes) {
        let e = token_expert(tok);
        let mul = e.wrapping_mul(2).wrapping_add(1);
        for b in &mut tok[HDR..] {
            *b = b.wrapping_mul(mul).wrapping_add(e);
        }
    }
}

/// Whether `combined` holds exactly the expert outputs for the stamped
/// tokens in `sent` (same order, same headers).
pub fn check_combined(sent: &[u8], combined: &[u8], token_bytes: usize) -> bool {
    if sent.len() != combined.len() {
        return false;
    }
    sent.chunks_exact(token_bytes).zip(combined.chunks_exact(token_bytes)).all(|(s, c)| {
        let e = token_expert(s);
        let mul = e.wrapping_mul(2).wrapping_add(1);
        s[..HDR] == c[..HDR]
            && s[HDR..]
                .iter()
                .zip(&c[HDR..])
                .all(|(&a, &b)| a.wrapping_mul(mul).wrapping_add(e) == b)
    })
}

/// The allreduce contribution of `rank` at iteration `iter`, lane `i`.
pub fn allreduce_lane(rank: usize, iter: u64, i: usize) -> u64 {
    ((rank as u64 + 1).wrapping_mul(i as u64 + 1)).wrapping_add(iter)
}

/// The closed-form sum of [`allreduce_lane`] over `nranks` ranks.
pub fn allreduce_expected(nranks: usize, iter: u64, i: usize) -> u64 {
    let n = nranks as u64;
    (i as u64 + 1).wrapping_mul(n * (n + 1) / 2).wrapping_add(n.wrapping_mul(iter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_file_roundtrip() {
        let a = MoeInput::generate(7, 2, 4, 64);
        let b = MoeInput::generate(7, 2, 4, 64);
        assert_eq!(a, b);
        assert_ne!(a, MoeInput::generate(8, 2, 4, 64));
        let dir = std::env::temp_dir().join(format!("perfbench-moe-{}", std::process::id()));
        a.write(&dir).unwrap();
        let c = MoeInput::read(&dir).unwrap();
        std::fs::remove_file(&dir).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn routing_is_skewed_with_hot_cold_and_empty_blocks() {
        let m = MoeInput::generate(1, 2, LAYERS, TOKENS);
        let mut buf = Vec::new();
        let (mut zero, mut eager, mut chunked) = (0, 0, 0);
        for l in 0..LAYERS {
            for src in 0..2 {
                let c = m.assemble(l, src, None, &mut buf);
                let remote = c[1 - src];
                zero += (remote == 0) as usize;
                eager += (remote > 0 && remote <= 8192) as usize;
                chunked += (remote > 64 << 10) as usize;
            }
        }
        assert!(zero > 0 && eager > 0 && chunked > LAYERS / 2, "{zero} {eager} {chunked}");
    }

    #[test]
    fn assemble_filter_matches_full_block() {
        let m = MoeInput::generate(3, 2, 2, 256);
        let mut all = Vec::new();
        let counts = m.assemble(1, 0, None, &mut all);
        let mut only1 = Vec::new();
        let c1 = m.assemble(1, 0, Some(1), &mut only1);
        assert_eq!(c1[1], counts[1]);
        assert_eq!(&all[counts[0]..], &only1[..]);
    }

    #[test]
    fn compute_roundtrip_checks() {
        let m = MoeInput::generate(5, 2, 1, 64);
        let mut sent = Vec::new();
        m.assemble(0, 0, None, &mut sent);
        let mut out = Vec::new();
        compute(&sent, &mut out, TOKEN_BYTES);
        assert!(check_combined(&sent, &out, TOKEN_BYTES));
        out[HDR + 3] ^= 1;
        assert!(!check_combined(&sent, &out, TOKEN_BYTES));
    }

    #[test]
    fn allreduce_closed_form() {
        for i in [0usize, 5, 131071] {
            let s: u64 = (0..2).map(|r| allreduce_lane(r, 9, i)).sum();
            assert_eq!(s, allreduce_expected(2, 9, i));
        }
    }
}
