//! Self-describing payloads: every message carries its publish index and
//! a checksum, so the checker identifies and validates a delivery from
//! its bytes alone.
//!
//! Layout: `[index: u64 LE][filler ...][checksum: u64 LE]`, at least 16
//! bytes. The filler is drawn from the workload seed and the index.

pub const MIN_LEN: usize = 16;

/// splitmix64's output function: a cheap, well-mixed hash of `z`. Every
/// seed-derived choice in the benchmark (filler bytes, senders, jitter)
/// goes through it.
pub fn splitmix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word-wise multiply-rotate fold: cheap enough to verify every delivery
/// inline (well under 0.2 µs per KiB).
fn checksum(body: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (h >> 32)
}

/// Builds the payload of publish `index`.
pub fn make(index: u64, len: usize, seed: u64) -> Vec<u8> {
    let len = len.max(MIN_LEN);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&index.to_le_bytes());
    let mut state = seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    while out.len() < len - 8 {
        state = splitmix(state);
        let w = state.to_le_bytes();
        let take = (len - 8 - out.len()).min(8);
        out.extend_from_slice(&w[..take]);
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The publish index a payload carries, or `None` if it is too short or
/// its checksum does not match its bytes.
pub fn check(payload: &[u8]) -> Option<u64> {
    if payload.len() < MIN_LEN {
        return None;
    }
    let (body, tail) = payload.split_at(payload.len() - 8);
    let sum = u64::from_le_bytes(tail.try_into().expect("tail of 8"));
    (checksum(body) == sum).then(|| u64::from_le_bytes(body[..8].try_into().expect("head of 8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_corruption() {
        for len in [16usize, 17, 100, 1024] {
            let p = make(42, len, 7);
            assert_eq!(p.len(), len);
            assert_eq!(check(&p), Some(42));
            for at in [0, len / 2, len - 1] {
                let mut bad = p.clone();
                bad[at] ^= 0x10;
                assert_eq!(check(&bad), None, "flip at {at} of {len}");
            }
        }
        assert_eq!(check(&[0u8; 8]), None);
        // The seed changes the filler, not the identity.
        assert_ne!(make(1, 64, 1), make(1, 64, 2));
    }
}
