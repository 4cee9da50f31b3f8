//! SHA-256 (FIPS-180-4).
//!
//! Used where the paper calls for a cryptographic hash tree: the Bonsai
//! Merkle tree nodes and the cache-tree set-MAC combination. A streaming
//! [`Sha256`] hasher is provided so callers can feed fields incrementally.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// ```
/// use star_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Convenience: hash `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        star_scope::span!("crypto/sha256");
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
            if rest.is_empty() {
                // Everything fit in the buffer; falling through would
                // clobber `buffered` with the empty remainder.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut self.state, chunk.try_into().unwrap());
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        star_scope::span!("crypto/sha256");
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Build the padded tail in place: 0x80, zeros to the length field.
        // If the marker lands past byte 55 the length spills into a second
        // block.
        self.buffer[self.buffered] = 0x80;
        for b in &mut self.buffer[self.buffered + 1..] {
            *b = 0;
        }
        if self.buffered >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Applies the SHA-256 compression function to `state` for one block.
///
/// Dispatches to the SHA-NI kernel when the host supports it and to
/// [`compress_soft`] otherwise.
#[inline]
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, block) {
        return;
    }
    compress_soft(state, block);
}

/// The portable software compression function — the fallback on hosts
/// without SHA-NI, kept public so tests can pin it against the hardware
/// path and benches can time it.
pub fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let delta = [a, b, c, d, e, f, g, h];
    for (s, d) in state.iter_mut().zip(delta) {
        *s = s.wrapping_add(d);
    }
}

/// The SHA-NI compression kernel. `sha256rnds2` runs two rounds per
/// instruction over the state split into its `ABEF` and `CDGH` halves;
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time. The layout follows Intel's SHA extensions reference code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether the host CPU has the SHA extensions plus the SSSE3 and
    /// SSE4.1 shuffles and blends the kernel uses (results are cached by
    /// the detection macro).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `block` into `state` if the host has SHA-NI; returns
    /// false (state untouched) otherwise.
    #[inline]
    pub fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: gated on runtime detection of every feature the kernel
        // enables.
        unsafe { compress(state, block) };
        true
    }

    /// One SHA-256 compression on the SHA unit.
    ///
    /// # Safety
    ///
    /// The caller must have verified [`available`] on this host.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Repack (A,B,C,D),(E,F,G,H) into the (A,B,E,F),(C,D,G,H) halves
        // the round instruction takes, each with A/C in the top lane.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // The message schedule, four words per vector; `w[i % 4]` holds
        // words 4i..4i+3 while rounds 4i..4i+3 run.
        let mut w: [__m128i; 4] = core::array::from_fn(|i| {
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap)
        });
        for i in 0..16 {
            let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast());
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            if i < 12 {
                // Words 4(i+4).. from the four vectors before them; the
                // slot of words 4i.. is free once their rounds have run.
                let sigma0 = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                let w7 = _mm_alignr_epi8::<4>(w[(i + 3) % 4], w[(i + 2) % 4]);
                w[i % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[(i + 3) % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        // Undo the repacking.
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST FIPS-180-4 example vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// One million 'a' characters — exercises the streaming path.
    #[test]
    fn nist_long_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    type CompressFn = fn(&mut [u32; 8], &[u8; 64]);

    /// SHA-256 of `data` with every block compressed by `compress`, so
    /// each compression path can be run on its own.
    fn digest_via(compress: CompressFn, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The SHA-NI kernel as a plain compress function, or `None` — with a
    /// printed note, so a skip is visible — on a host without it.
    fn hardware_compress() -> Option<CompressFn> {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return Some(|state, block| assert!(shani::try_compress(state, block)));
        }
        println!("note: host lacks SHA-NI; skipping the hardware half of this test");
        None
    }

    /// The NIST vectors hold through the software compress and, where the
    /// host has it, the SHA-NI compress.
    #[test]
    fn nist_vectors_through_both_compress_paths() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let mut paths: Vec<(&str, CompressFn)> = vec![("soft", compress_soft)];
        if let Some(hw) = hardware_compress() {
            paths.push(("sha-ni", hw));
        }
        for (name, path) in paths {
            for (data, want) in vectors {
                assert_eq!(hex(&digest_via(path, data)), want, "{name} path");
            }
        }
    }

    /// The SHA-NI compress equals the software compress on seeded random
    /// states and blocks.
    #[test]
    fn hardware_compress_matches_soft() {
        use star_rng::SimRng;
        let Some(hw) = hardware_compress() else {
            return;
        };
        let mut rng = SimRng::seed_from_u64(0x7368_615f_6e69_6466);
        for case in 0..1024 {
            let state: [u32; 8] = core::array::from_fn(|_| rng.gen_u64() as u32);
            let block: [u8; 64] = core::array::from_fn(|_| rng.gen_u8());
            let (mut soft, mut hard) = (state, state);
            compress_soft(&mut soft, &block);
            hw(&mut hard, &block);
            assert_eq!(hard, soft, "case {case}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }
}
