//! Constant-memory footprint model.
//!
//! The paper contrasts its approach with Vu et al. \[7\], which stores all
//! candidate combinations in GPU memory (gigabytes): "our approach
//! requires a minimal amount of memory (less than 1 Kbyte) and does not
//! require any initialization phase". The kernel only needs, in constant
//! memory: the target digest, the charset, the fixed message-word
//! template (common substring + padding), and the interval description.

/// Byte footprint of the kernel's constant-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantFootprint {
    /// Target digest bytes (16 for MD5, 20 for SHA-1).
    pub digest_len: usize,
    /// Charset symbols.
    pub charset_len: usize,
    /// Fixed message-word template (16 words).
    pub template_words: usize,
    /// Interval start identifier (u128) and length (u128).
    pub interval_bytes: usize,
    /// Misc scalars: key length, keys per thread, flags.
    pub scalar_bytes: usize,
}

impl ConstantFootprint {
    /// Footprint for an MD5 search over a charset of `charset_len`.
    pub fn md5(charset_len: usize) -> Self {
        Self {
            digest_len: 16,
            charset_len,
            template_words: 16,
            interval_bytes: 32,
            scalar_bytes: 16,
        }
    }

    /// Footprint for a SHA-1 search.
    pub fn sha1(charset_len: usize) -> Self {
        Self {
            digest_len: 20,
            charset_len,
            template_words: 16,
            interval_bytes: 32,
            scalar_bytes: 16,
        }
    }

    /// Total bytes.
    fn total_bytes(&self) -> usize {
        self.digest_len
            + self.charset_len
            + self.template_words * 4
            + self.interval_bytes
            + self.scalar_bytes
    }

    /// The paper's claim: the whole parameter block fits in under 1 KiB.
    pub fn fits_one_kilobyte(&self) -> bool {
        self.total_bytes() < 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md5_footprint_is_under_1kb_even_for_full_ascii() {
        let f = ConstantFootprint::md5(95);
        assert!(f.fits_one_kilobyte(), "{} bytes", f.total_bytes());
        // 16 + 95 + 64 + 32 + 16 = 223 bytes.
        assert_eq!(f.total_bytes(), 223);
    }

    #[test]
    fn sha1_footprint_is_under_1kb() {
        let f = ConstantFootprint::sha1(255);
        assert!(f.fits_one_kilobyte(), "{} bytes", f.total_bytes());
    }

    #[test]
    fn worst_case_charset_still_fits() {
        let f = ConstantFootprint {
            digest_len: 20,
            charset_len: 255,
            template_words: 16,
            interval_bytes: 32,
            scalar_bytes: 64,
        };
        assert!(f.fits_one_kilobyte());
    }
}
