//! Invertible label generation: domain index <-> pronounceable label.
//!
//! Each index is written in base-64 using a fixed table of two-letter
//! syllables, producing labels like `bakedu` or `zosifexa`. Because the
//! encoding is a bijection, an authoritative model can answer "is this
//! label registered?" by decoding it back to an index and checking the
//! index against the zone size — no stored name list needed.

/// The 64 syllables; index = digit value. All distinct two-letter
/// strings so decoding is an unambiguous chunk-by-chunk table lookup.
const SYLLABLES: [&str; 64] = [
    "ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du", "fa", "fe", "fi", "fo", "fu", "ga",
    "ge", "gi", "go", "gu", "ha", "he", "hi", "ho", "hu", "ja", "je", "ji", "jo", "ju", "ka", "ke",
    "ki", "ko", "ku", "la", "le", "li", "lo", "lu", "ma", "me", "mi", "mo", "mu", "na", "ne", "ni",
    "no", "nu", "pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so",
];

/// Encode an index as a syllable label (most significant digit first).
///
/// ```
/// assert_eq!(zonedb::names::encode_label(0), "ba");
/// assert_eq!(zonedb::names::decode_label("ba"), Some(0));
/// ```
pub fn encode_label(idx: u64) -> String {
    let mut buf = [0; MAX_LABEL_OCTETS];
    String::from_utf8(label_octets(idx, &mut buf).to_vec()).expect("syllables are ASCII")
}

/// Longest encoding: 11 base-64 digits of a `u64`, two octets each.
pub(crate) const MAX_LABEL_OCTETS: usize = 22;

/// [`encode_label`] into a caller's buffer, allocating nothing.
pub(crate) fn label_octets(idx: u64, buf: &mut [u8; MAX_LABEL_OCTETS]) -> &[u8] {
    let digits = digit_count(idx);
    for i in 0..digits {
        let syllable = SYLLABLES[(idx >> (6 * (digits - 1 - i))) as usize % 64].as_bytes();
        buf[2 * i..2 * i + 2].copy_from_slice(syllable);
    }
    &buf[..2 * digits]
}

/// Base-64 digits in `idx`'s encoding (at least one).
fn digit_count(idx: u64) -> usize {
    let mut digits = 1;
    let mut rest = idx >> 6;
    while rest > 0 {
        digits += 1;
        rest >>= 6;
    }
    digits
}

/// Decode a syllable label back to its index; `None` if the string is
/// not a valid encoding (odd length, unknown syllable, non-canonical
/// leading zero).
pub fn decode_label(label: &str) -> Option<u64> {
    decode_octets(label.as_bytes())
}

/// [`decode_label`] over raw label octets (case-sensitive: syllables
/// are lowercase).
pub(crate) fn decode_octets(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || !bytes.len().is_multiple_of(2) || bytes.len() > MAX_LABEL_OCTETS {
        return None;
    }
    let mut idx: u64 = 0;
    for chunk in bytes.chunks(2) {
        let d = SYLLABLES.iter().position(|s| s.as_bytes() == chunk)? as u64;
        idx = idx.checked_mul(64)?.checked_add(d)?;
    }
    // reject non-canonical encodings like "baba" for 0 ("ba")
    if 2 * digit_count(idx) != bytes.len() {
        return None;
    }
    Some(idx)
}

/// The generated TLD inventory for the root-zone model: a handful of
/// real anchor TLDs (so the ccTLD studies compose) plus synthesized
/// ones up to `count`.
pub fn tld_label(i: usize) -> String {
    const ANCHORS: [&str; 12] = [
        "nl", "nz", "com", "net", "org", "de", "uk", "fr", "jp", "br", "io", "info",
    ];
    if i < ANCHORS.len() {
        ANCHORS[i].to_string()
    } else {
        // 't' prefix keeps synthetic TLDs out of the syllable namespace
        format!("t{}", encode_label((i - ANCHORS.len()) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijection_small() {
        for i in 0..5000u64 {
            let l = encode_label(i);
            assert_eq!(decode_label(&l), Some(i), "label {l}");
        }
    }

    #[test]
    fn bijection_large() {
        for i in [1u64 << 20, 1 << 32, u64::MAX / 3, u64::MAX] {
            let l = encode_label(i);
            assert!(l.len() <= 22);
            assert_eq!(decode_label(&l), Some(i));
        }
    }

    #[test]
    fn labels_are_dns_safe() {
        for i in (0..100_000u64).step_by(997) {
            let l = encode_label(i);
            assert!(l.len() <= 63);
            assert!(l.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn invalid_strings_decode_to_none() {
        for s in ["", "b", "xx", "ba7", "hello", "qa", "BA", "bax", "ba-"] {
            assert_eq!(decode_label(s), None, "{s:?}");
        }
    }

    #[test]
    fn non_canonical_rejected() {
        // "ba" is digit 0; a leading zero digit would be "ba" + encode(x)
        let padded = format!("ba{}", encode_label(5));
        assert_eq!(decode_label(&padded), None);
    }

    #[test]
    fn distinct_indices_distinct_labels() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..20_000u64 {
            assert!(seen.insert(encode_label(i)));
        }
    }

    #[test]
    fn tld_inventory() {
        assert_eq!(tld_label(0), "nl");
        assert_eq!(tld_label(1), "nz");
        assert_eq!(tld_label(2), "com");
        assert!(tld_label(12).starts_with('t'));
        assert_ne!(tld_label(12), tld_label(13));
    }
}
