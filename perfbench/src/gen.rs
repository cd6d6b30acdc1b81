//! Seeded, replayable request generators.
//!
//! Every byte the runtime receives comes from here, and every stream is
//! a pure function of the seed: the same seed gives a byte-identical
//! request stream (`tests/replayable.rs` pins that down). The stream
//! never depends on how the runtime answered — the oracle's expectations
//! do, but they live in the workload modules — so the traced run's
//! single-thread replay can regenerate exactly the inputs the timed run
//! sent.

/// SplitMix64: small, fast and stable across toolchains, so a seed
/// means the same stream on every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.next_u64() % 1000 < per_mille
    }

    /// `len` lowercase letters: printable, and free of the CR/LF bytes
    /// the text protocols frame on.
    pub fn letters(&mut self, len: usize, out: &mut Vec<u8>) {
        out.extend((0..len).map(|_| b'a' + (self.next_u64() % 26) as u8));
    }
}

/// FNV-1a: how the oracle fingerprints values without keeping them.
#[must_use]
pub fn fnv64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Benign kv clients: more than 2 workers × 8 pooled domains can hold,
/// so domains are multiplexed.
pub const BENIGN_CLIENTS: u64 = 256;
/// Keys each benign client owns. Keys are private to their client, so a
/// client's requests — FIFO on its sticky shard — fully order its keys.
pub const KEYS_PER_CLIENT: u64 = 4;
/// Oracle slots: one per (client, key).
pub const KV_SLOTS: usize = (BENIGN_CLIENTS * KEYS_PER_CLIENT) as usize;
/// Offender ids start here, far from the benign ids `1..=256`; each
/// offender run takes the next id, so every run is a fresh client.
pub const OFFENDER_BASE: u64 = 1 << 32;

/// What one kv request is, for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// `get` of oracle slot `slot`.
    Get {
        /// Oracle slot of the key.
        slot: usize,
    },
    /// `set` of oracle slot `slot` to a value of `len` bytes with
    /// fingerprint `hash`.
    Set {
        /// Oracle slot of the key.
        slot: usize,
        /// Value length.
        len: usize,
        /// [`fnv64`] of the value.
        hash: u64,
    },
    /// An `xstat` whose declared length overruns its data: the planted
    /// bug, which must fault and be contained.
    Exploit,
}

/// One generated kv request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOp {
    /// Sending client id.
    pub client: u64,
    /// What the request is.
    pub kind: KvKind,
    /// The wire bytes, memcached text protocol.
    pub payload: Vec<u8>,
}

/// The key of oracle slot `slot` as it appears on the wire.
#[must_use]
pub fn kv_key(slot: usize) -> String {
    let slot = slot as u64;
    format!("k{}-{}", 1 + slot / KEYS_PER_CLIENT, slot % KEYS_PER_CLIENT)
}

/// The benign kv stream (90% get / 10% set, 8–512 B values) with an
/// optional share of exploits from rotating offenders.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    exploit_per_mille: u64,
    offender: u64,
    run_left: u64,
}

impl KvGen {
    /// The stream `kv-paced` sends: benign only.
    #[must_use]
    pub fn paced(seed: u64) -> Self {
        Self::with_exploits(seed, 0)
    }

    /// The stream `kv-hostile` sends: 5% exploits, each offender a fresh
    /// id firing a run of 6–20.
    #[must_use]
    pub fn hostile(seed: u64) -> Self {
        Self::with_exploits(seed, 50)
    }

    fn with_exploits(seed: u64, exploit_per_mille: u64) -> Self {
        KvGen {
            rng: Rng::new(seed),
            exploit_per_mille,
            offender: OFFENDER_BASE,
            run_left: 0,
        }
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> KvOp {
        if self.exploit_per_mille > 0 && self.rng.chance(self.exploit_per_mille) {
            if self.run_left == 0 {
                self.offender += 1;
                self.run_left = self.rng.range(6, 20);
            }
            self.run_left -= 1;
            return KvOp {
                client: self.offender,
                kind: KvKind::Exploit,
                payload: exploit_payload(&mut self.rng),
            };
        }
        let slot = (self.rng.next_u64() % KV_SLOTS as u64) as usize;
        let client = 1 + slot as u64 / KEYS_PER_CLIENT;
        let key = kv_key(slot);
        if self.rng.chance(100) {
            let len = self.rng.range(8, 512) as usize;
            let mut payload = format!("set {key} {len}\r\n").into_bytes();
            let start = payload.len();
            self.rng.letters(len, &mut payload);
            let hash = fnv64(&payload[start..]);
            payload.extend_from_slice(b"\r\n");
            KvOp {
                client,
                kind: KvKind::Set { slot, len, hash },
                payload,
            }
        } else {
            KvOp {
                client,
                kind: KvKind::Get { slot },
                payload: format!("get {key}\r\n").into_bytes(),
            }
        }
    }
}

/// An `xstat` request whose declared length exceeds its 4–64 data bytes
/// by at least 1 KiB, so the scrub overruns the staging buffer.
pub fn exploit_payload(rng: &mut Rng) -> Vec<u8> {
    let actual = rng.range(4, 64) as usize;
    let declared = actual + rng.range(1024, 8192) as usize;
    let mut payload = format!("xstat {declared} {actual}\r\n").into_bytes();
    rng.letters(actual, &mut payload);
    payload.extend_from_slice(b"\r\n");
    payload
}

/// Static pages the http workload publishes on every worker.
pub const PAGES: usize = 32;

/// The published site for `seed`: [`PAGES`] pages of 1–16 KiB. Drawn
/// from its own stream, so the request stream does not shift with it.
#[must_use]
pub fn site(seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng::new(seed ^ 0x5EED_5173_0000_0000);
    (0..PAGES)
        .map(|page| {
            let mut body = Vec::new();
            let len = rng.range(1024, 16 * 1024) as usize;
            rng.letters(len, &mut body);
            (page_path(page), body)
        })
        .collect()
}

/// The path of page `page`.
#[must_use]
pub fn page_path(page: usize) -> String {
    format!("/page/{page}")
}

/// What one http request is, for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpKind {
    /// `GET` of published page `page`.
    Get {
        /// Page index into [`site`].
        page: usize,
    },
    /// Chunked `POST /upload` whose chunks decode to `decoded` bytes.
    Upload {
        /// Decoded body length.
        decoded: usize,
    },
    /// A chunk declaring more bytes than it carries: must be contained.
    Exploit,
}

/// One generated http request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpOp {
    /// What the request is.
    pub kind: HttpKind,
    /// The wire bytes.
    pub payload: Vec<u8>,
}

/// The http stream: GETs of published pages beside chunked uploads of
/// 1–16 KiB, half and half.
#[derive(Debug, Clone)]
pub struct HttpGen {
    rng: Rng,
}

impl HttpGen {
    /// The stream `http-conn` sends.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        HttpGen {
            rng: Rng::new(seed),
        }
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> HttpOp {
        if self.rng.chance(500) {
            let page = (self.rng.next_u64() % PAGES as u64) as usize;
            let payload =
                format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", page_path(page)).into_bytes();
            return HttpOp {
                kind: HttpKind::Get { page },
                payload,
            };
        }
        let decoded = self.rng.range(1024, 16 * 1024) as usize;
        let mut payload =
            b"POST /upload HTTP/1.1\r\nHost: bench\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        let mut left = decoded;
        while left > 0 {
            let chunk = (self.rng.range(256, 4096) as usize).min(left);
            payload.extend_from_slice(format!("{chunk:x}\r\n").as_bytes());
            self.rng.letters(chunk, &mut payload);
            payload.extend_from_slice(b"\r\n");
            left -= chunk;
        }
        payload.extend_from_slice(b"0\r\n\r\n");
        HttpOp {
            kind: HttpKind::Upload { decoded },
            payload,
        }
    }

    /// A chunked upload whose one chunk declares 4–8 KiB but carries
    /// 2–64 bytes: the decoder's planted overflow.
    pub fn exploit(&mut self) -> HttpOp {
        let actual = self.rng.range(2, 64) as usize;
        let declared = self.rng.range(4096, 8192);
        let mut payload = format!(
            "POST /upload HTTP/1.1\r\nHost: bench\r\nTransfer-Encoding: chunked\r\n\r\n{declared:x}\r\n"
        )
        .into_bytes();
        self.rng.letters(actual, &mut payload);
        payload.extend_from_slice(b"\r\n0\r\n\r\n");
        HttpOp {
            kind: HttpKind::Exploit,
            payload,
        }
    }
}
