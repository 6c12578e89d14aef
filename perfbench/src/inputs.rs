//! Seeded inputs. Everything a workload sends to the program is built
//! here from `(params, seed)` before timing starts; payload bytes come
//! from the canonical `workloads::oplog::fill_payload`, so every image
//! below is also the oracle its read-back is compared against.

use crate::trace::{fnv, FNV_SEED};
use simkit::Rng;
use workloads::oplog::fill_payload;
use workloads::sample::SizeDist;

/// One planned write: `rank` writes `len` bytes at logical `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub rank: u32,
    pub offset: u64,
    pub len: u64,
}

/// Strided N-1 layout: `steps` rounds in which every rank, in rank
/// order, writes one record of a seeded size right after the previous
/// record (FLASH-IO style: small, unaligned, interleaved).
pub fn strided(ranks: u32, steps: u32, size: SizeDist, seed: u64) -> Vec<Rec> {
    let mut rng = Rng::new(seed);
    let mut off = 0;
    let mut recs = Vec::with_capacity((ranks * steps) as usize);
    for _ in 0..steps {
        for rank in 0..ranks {
            let len = size.sample(&mut rng);
            recs.push(Rec { rank, offset: off, len });
            off += len;
        }
    }
    recs
}

/// Bytes a file holds once every record lands; `key` picks the
/// payload stream of each record.
pub fn image(recs: &[Rec], key: impl Fn(&Rec) -> u32) -> Vec<u8> {
    let size = recs.iter().map(|r| r.offset + r.len).max().unwrap_or(0);
    let mut img = vec![0u8; size as usize];
    for r in recs {
        fill_payload(key(r), r.offset, &mut img[r.offset as usize..(r.offset + r.len) as usize]);
    }
    img
}

/// `n` seeded uniform offsets of `len`-byte reads inside `[0, size)`.
pub fn uniform_reads(n: usize, len: u64, size: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.below(size - len + 1)).collect()
}

/// Repeated-checkpoint state: rank `r` owns segment `[r·seg, (r+1)·seg)`
/// split into `region`-byte regions; before every iteration after the
/// first, a seeded `change` share of each rank's regions (rounded, at
/// least one) is rewritten. Returns, per
/// iteration, the file image (payload key = rank + 1024 · version of
/// the region, so unchanged regions repeat byte for byte).
pub fn repeated_images(
    ranks: u32,
    seg: u64,
    region: u64,
    iters: u32,
    change: f64,
    seed: u64,
) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let regions = seg.div_ceil(region);
    let mut version = vec![0u32; (ranks as u64 * regions) as usize];
    let mut out = Vec::with_capacity(iters as usize);
    for it in 0..iters {
        if it > 0 {
            let pick = ((regions as f64 * change).round() as u64).max(1);
            for rank in version.chunks_mut(regions as usize) {
                let mut order: Vec<usize> = (0..rank.len()).collect();
                rng.shuffle(&mut order);
                for &g in &order[..pick as usize] {
                    rank[g] = it;
                }
            }
        }
        let mut img = vec![0u8; (ranks as u64 * seg) as usize];
        for (i, v) in version.iter().enumerate() {
            let (rank, g) = (i as u64 / regions, i as u64 % regions);
            let lo = rank * seg + g * region;
            let hi = (lo + region).min((rank + 1) * seg);
            fill_payload(rank as u32 + 1024 * v, lo, &mut img[lo as usize..hi as usize]);
        }
        out.push(img);
    }
    out
}

/// Segmented N-1 layout: each rank writes its segment as records of
/// seeded sizes; ranks take turns, one record each.
pub fn segmented(ranks: u32, seg: u64, size: SizeDist, seed: u64) -> Vec<Rec> {
    let mut rng = Rng::new(seed);
    let per_rank: Vec<Vec<Rec>> = (0..ranks)
        .map(|rank| {
            let (mut off, end) = (rank as u64 * seg, (rank as u64 + 1) * seg);
            let mut recs = Vec::new();
            while off < end {
                let len = size.sample(&mut rng).min(end - off);
                recs.push(Rec { rank, offset: off, len });
                off += len;
            }
            recs
        })
        .collect();
    let turns = per_rank.iter().map(Vec::len).max().unwrap_or(0);
    (0..turns).flat_map(|k| per_rank.iter().filter_map(move |r| r.get(k).copied())).collect()
}

/// Order-sensitive digest of an op stream.
pub fn ops_digest<'a>(ops: impl IntoIterator<Item = &'a Rec>) -> u64 {
    ops.into_iter().fold(FNV_SEED, |h, r| {
        let h = fnv(h, &r.rank.to_le_bytes());
        let h = fnv(h, &r.offset.to_le_bytes());
        fnv(h, &r.len.to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_records_tile_the_file() {
        let recs = strided(4, 3, SizeDist::Uniform { min: 5, max: 9 }, 7);
        let mut end = 0;
        for r in &recs {
            assert_eq!(r.offset, end);
            end += r.len;
        }
        assert_eq!(recs.len(), 12);
    }

    #[test]
    fn repeated_images_change_about_the_asked_share() {
        let imgs = repeated_images(4, 1 << 16, 1 << 12, 3, 0.1, 3);
        let blocks = imgs[0].len() / 4096;
        let changed = (0..blocks)
            .filter(|b| imgs[0][b * 4096..(b + 1) * 4096] != imgs[1][b * 4096..(b + 1) * 4096])
            .count();
        // 16 regions per rank, 10% rounded: 2 of 16 per rank change.
        assert_eq!(changed, 4 * 2, "{changed} of {blocks} regions changed");
    }
}
