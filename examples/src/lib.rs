//! Shared code for the TIB-PRE examples.
//!
//! Each example binary (`quickstart`, `phr_disclosure`, `proxy_compromise`,
//! `travel_emergency`, `paper_tables`) is a standalone walk-through of the
//! public API.  This library hosts what they share: small formatting
//! utilities, the [`baseline`] schemes the paper argues against, and the
//! [`sizes`] accounting behind the paper's storage claim — comparison
//! material no production path calls, kept beside the binaries that print it.

pub mod baseline;
pub mod sizes;

/// Prints a section banner so the example output is easy to follow.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a byte length in a human-friendly way.
///
/// Values that would *round* to the next unit's threshold are promoted to
/// that unit, so the output never reads "1024.0 KiB".
pub fn human_bytes(len: usize) -> String {
    const KIB: f64 = 1024.0;
    const MIB: f64 = KIB * 1024.0;
    const GIB: f64 = MIB * 1024.0;

    let rounds_below = |value: f64| (value * 10.0).round() / 10.0 < KIB;
    if len < 1024 {
        format!("{len} B")
    } else if rounds_below(len as f64 / KIB) {
        format!("{:.1} KiB", len as f64 / KIB)
    } else if rounds_below(len as f64 / MIB) {
        format!("{:.1} MiB", len as f64 / MIB)
    } else {
        format!("{:.1} GiB", len as f64 / GIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(10), "10 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn human_bytes_edge_cases() {
        // Zero and the byte/KiB boundary.
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.0 KiB");
        assert_eq!(human_bytes(1025), "1.0 KiB");
        // One byte below an exact MiB used to print "1024.0 KiB".
        assert_eq!(human_bytes(1024 * 1024 - 1), "1.0 MiB");
        assert_eq!(human_bytes(1024 * 1024), "1.0 MiB");
        // Same promotion at the MiB/GiB boundary.
        assert_eq!(human_bytes(1024 * 1024 * 1024 - 1), "1.0 GiB");
        assert_eq!(human_bytes(1024 * 1024 * 1024), "1.0 GiB");
        // A value safely inside the KiB band still rounds normally.
        assert_eq!(human_bytes(1536), "1.5 KiB");
        assert_eq!(human_bytes(1023 * 1024), "1023.0 KiB");
    }
}
