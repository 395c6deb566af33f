//! The Internet checksum (RFC 1071) used by ICMPv4.
//!
//! One's-complement sum of 16-bit words, with odd trailing bytes padded by a
//! zero octet, then complemented.

/// Compute the RFC 1071 Internet checksum over `data`.
///
/// The checksum field itself must be zeroed (or excluded) by the caller
/// before computing; verification of a received packet computes the sum over
/// the packet as-is and checks for zero (see [`verify`]).
pub fn internet_checksum(data: &[u8]) -> u16 {
    finish(accumulate(0, data))
}

/// Add `data`'s 16-bit big-endian words to a running sum, an odd trailing
/// byte padded with a zero octet. Splitting the input at even offsets and
/// accumulating the parts in order gives the sum over the whole.
///
/// The accumulator wraps at 2^32 in every build profile. Inputs under
/// 128 KiB never reach the wrap; for larger ones the wrapped value is what
/// the journal and serve formats have always stored, so it stays.
pub fn accumulate(mut sum: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum = sum.wrapping_add(u32::from(u16::from_be_bytes([c[0], c[1]])));
    }
    if let [last] = chunks.remainder() {
        sum = sum.wrapping_add(u32::from(u16::from_be_bytes([*last, 0])));
    }
    sum
}

/// Fold a running sum from [`accumulate`] to 16 bits and complement it.
pub fn finish(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Verify a packet whose checksum field is in place: the one's-complement
/// sum over the whole packet must be zero (i.e. `internet_checksum` yields
/// 0).
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic worked example from RFC 1071 §3:
        // words 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0x2ddf0 -> fold 0xddf2
        // -> checksum !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn empty_checksum_is_all_ones() {
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut pkt = vec![0x08, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01, 0xAA];
        let ck = internet_checksum(&pkt);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&pkt));
        pkt[8] ^= 0xFF;
        assert!(!verify(&pkt));
    }

    #[test]
    fn all_zero_packet_verifies_with_ffff() {
        // A packet of zeros with checksum 0xFFFF sums to 0xFFFF -> !0xFFFF == 0.
        let pkt = [0x00, 0x00, 0xFF, 0xFF];
        assert!(verify(&pkt));
    }
}
