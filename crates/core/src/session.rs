//! Per-channel session keys and synchronized counter streams.
//!
//! After boot-time bootstrap (paper §3.1), the processor holds one session
//! key per memory channel in its Session Key Table (Figure 3, step 1b) and
//! each channel's memory-side controller holds the same key. Both ends
//! also hold a synchronized counter; every obfuscated request consumes six
//! pads and advances both counters by six.

use obfusmem_crypto::aes::Aes128;
use obfusmem_crypto::ctr::CtrStream;
use obfusmem_crypto::mac::{MacEngine, MacHash};

use crate::ObfusMemError;

/// One end's cryptographic state for one channel.
#[derive(Debug, Clone)]
pub struct ChannelSession {
    key: [u8; 16],
    stream: CtrStream,
    mac: MacEngine,
    /// ECB cipher for the strawman address mode.
    ecb: Aes128,
}

impl ChannelSession {
    /// Builds a session from an established shared key and nonce.
    pub fn new(key: [u8; 16], nonce: u64) -> Self {
        // The session key is expanded exactly once; the CTR stream and
        // the ECB strawman share the schedule (cloning copies it).
        let cipher = Aes128::new(&key);
        ChannelSession {
            key,
            stream: CtrStream::new(cipher.clone(), nonce),
            mac: MacEngine::new(key, MacHash::Md5),
            ecb: cipher,
        }
    }

    /// The counter-mode pad stream (shared-counter discipline).
    pub fn stream_mut(&mut self) -> &mut CtrStream {
        &mut self.stream
    }

    /// Read access to the stream (e.g. to snapshot the counter).
    pub fn stream(&self) -> &CtrStream {
        &self.stream
    }

    /// The MAC engine keyed with this channel's session key.
    pub fn mac(&self) -> &MacEngine {
        &self.mac
    }

    /// ECB-encrypts a 16-byte header (strawman address mode, §3.2).
    pub fn ecb_encrypt(&self, header: &[u8; 16]) -> [u8; 16] {
        self.ecb.encrypt_block(header)
    }

    /// ECB-decrypts a 16-byte header.
    pub fn ecb_decrypt(&self, header: &[u8; 16]) -> [u8; 16] {
        self.ecb.decrypt_block(header)
    }

    /// True if `other` holds the same key (test/diagnostic helper).
    pub fn same_key_as(&self, other: &ChannelSession) -> bool {
        self.key == other.key
    }

    /// Re-keys the session after repeated integrity failures (link-layer
    /// escalation). The new key is derived as a PRF of the old key over
    /// the rekey epoch — AES(old_key, epoch ‖ epoch) — so both ends of a
    /// channel that agree on the epoch derive the same key without any
    /// extra bus traffic, and an attacker who forced the rekey learns
    /// nothing about either key. The counter stream restarts at the
    /// epoch (a nonce both ends agree on by construction).
    pub fn rekey(&mut self, epoch: u64) {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&epoch.to_le_bytes());
        block[8..].copy_from_slice(&epoch.to_le_bytes());
        let new_key = self.ecb.encrypt_block(&block);
        *self = ChannelSession::new(new_key, epoch);
    }
}

impl Drop for ChannelSession {
    /// Scrubs the raw session key (the expanded schedules inside the CTR
    /// stream and ECB cipher scrub themselves — `Aes128` zeroizes on
    /// drop). Re-keying replaces `*self`, so retired keys pass through
    /// here too.
    fn drop(&mut self) {
        for b in self.key.iter_mut() {
            unsafe { std::ptr::write_volatile(b, 0) };
        }
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// The processor's Session Key Table: one session per channel.
#[derive(Debug)]
pub struct SessionKeyTable {
    sessions: Vec<ChannelSession>,
}

impl SessionKeyTable {
    /// Builds the table from per-channel established keys.
    pub fn new(keys_and_nonces: Vec<([u8; 16], u64)>) -> Self {
        SessionKeyTable {
            sessions: keys_and_nonces
                .into_iter()
                .map(|(k, n)| ChannelSession::new(k, n))
                .collect(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.sessions.len()
    }

    /// Appends a session lane and returns its index. The classic system
    /// sizes the table once at bootstrap; the multi-tenant fabric grows
    /// it as tenants hand-shake in.
    pub fn add_session(&mut self, key: [u8; 16], nonce: u64) -> usize {
        self.sessions.push(ChannelSession::new(key, nonce));
        self.sessions.len() - 1
    }

    /// The session for `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for out-of-range indices.
    pub fn session_mut(&mut self, channel: usize) -> Result<&mut ChannelSession, ObfusMemError> {
        let channels = self.sessions.len();
        self.sessions
            .get_mut(channel)
            .ok_or(ObfusMemError::NoSuchChannel { channel, channels })
    }

    /// Immutable session access.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for out-of-range indices.
    pub fn session(&self, channel: usize) -> Result<&ChannelSession, ObfusMemError> {
        let channels = self.sessions.len();
        self.sessions
            .get(channel)
            .ok_or(ObfusMemError::NoSuchChannel { channel, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_sessions_stay_synchronized() {
        let mut a = ChannelSession::new([1; 16], 42);
        let mut b = ChannelSession::new([1; 16], 42);
        for _ in 0..10 {
            let ct = a.stream_mut().xor_copy(b"0123456789abcdef");
            assert_eq!(b.stream_mut().xor_copy(&ct), b"0123456789abcdef".to_vec());
        }
        assert_eq!(a.stream().counter(), b.stream().counter());
    }

    #[test]
    fn table_indexes_by_channel() {
        let mut t = SessionKeyTable::new(vec![([1; 16], 0), ([2; 16], 0)]);
        assert_eq!(t.channels(), 2);
        assert!(t.session_mut(0).is_ok());
        assert!(t.session(1).is_ok());
        assert!(matches!(
            t.session(5),
            Err(ObfusMemError::NoSuchChannel {
                channel: 5,
                channels: 2
            })
        ));
    }

    #[test]
    fn per_channel_keys_are_independent() {
        let t = SessionKeyTable::new(vec![([1; 16], 0), ([2; 16], 0)]);
        assert!(!t.session(0).unwrap().same_key_as(t.session(1).unwrap()));
    }

    #[test]
    fn session_key_expands_once_and_schedule_is_reused() {
        use obfusmem_crypto::aes::key_expansions_this_thread;
        let before = key_expansions_this_thread();
        let mut s = ChannelSession::new([5; 16], 1);
        let after_new = key_expansions_this_thread();
        assert_eq!(
            after_new - before,
            1,
            "a session key must be expanded exactly once (CTR + ECB share it)"
        );
        let mut pads = [[0u8; 16]; 6];
        for _ in 0..1_000 {
            s.stream_mut().keystream_into(&mut pads);
            s.ecb_encrypt(&pads[0]);
        }
        assert_eq!(
            key_expansions_this_thread(),
            after_new,
            "steady-state pad generation must reuse the expanded schedule"
        );
    }

    #[test]
    fn rekey_derives_aes_of_the_epoch_under_the_old_key() {
        let old_key = [0x9C; 16];
        let mut s = ChannelSession::new(old_key, 3);
        let epoch = 0x0102_0304_0506_0708u64;
        s.rekey(epoch);
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&epoch.to_le_bytes());
        block[8..].copy_from_slice(&epoch.to_le_bytes());
        let expected = Aes128::new_scalar(&old_key).encrypt_block(&block);
        assert_eq!(s.key, expected);
        assert!(s.same_key_as(&ChannelSession::new(expected, epoch)));
        assert_eq!(s.stream().counter(), 0);
    }

    #[test]
    fn ecb_round_trips() {
        let s = ChannelSession::new([3; 16], 0);
        let header = [0xAB; 16];
        assert_eq!(s.ecb_decrypt(&s.ecb_encrypt(&header)), header);
    }
}
