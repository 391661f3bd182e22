//! Trust architecture and boot-time bootstrap (paper §3.1).
//!
//! ObfusMem's TCB includes both the processor and the memory. The paper
//! describes three ways a built system learns which public keys to trust:
//!
//! 1. **Naive** — keys exchanged in the clear during BIOS; only safe if
//!    boot is physically isolated (the paper recommends against it).
//! 2. **Trusted system integrator** — the integrator burns each
//!    component's public key into its counterpart's write-once registers.
//! 3. **Untrusted system integrator** — same burning, but both components
//!    attest (SGX-like signed measurements) so a wrong/malicious burn is
//!    detected at boot and the system refuses to come up.
//!
//! After key establishment, the BIOS runs a Diffie–Hellman exchange per
//! memory channel to derive the symmetric session keys that drive all
//! steady-state bus crypto. Public-key operations happen only at boot.

use obfusmem_crypto::dh::DhKeyPair;
use obfusmem_crypto::identity::{DeviceIdentity, DeviceKind, Manufacturer};
use obfusmem_crypto::rsa::RsaPublicKey;
use obfusmem_crypto::sha1::Sha1;

use crate::ObfusMemError;

/// Which §3.1 bootstrap protocol a system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootstrapApproach {
    /// Clear-text key exchange during BIOS (assumes isolated boot).
    Naive,
    /// Integrator burns counterpart public keys; integrator trusted.
    TrustedIntegrator,
    /// Burned keys cross-checked by mutual attestation; integrator
    /// untrusted.
    UntrustedIntegrator,
}

/// A simulated processor or memory package: burned identity plus the
/// write-once registers the integrator programs.
#[derive(Debug)]
pub struct Component {
    identity: DeviceIdentity,
    /// Counterpart public-key fingerprints burned by the integrator
    /// (spares allow a limited number of upgrades).
    burned_fingerprints: Vec<[u8; 20]>,
    /// Register capacity (provisioned spares included).
    register_slots: usize,
}

impl Component {
    /// Packages a fabricated identity with `register_slots` write-once
    /// key registers.
    pub fn new(identity: DeviceIdentity, register_slots: usize) -> Self {
        Component {
            identity,
            burned_fingerprints: Vec::new(),
            register_slots,
        }
    }

    /// The burned-in identity.
    pub fn identity(&self) -> &DeviceIdentity {
        &self.identity
    }

    /// Burns a counterpart key fingerprint into the next spare register.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::BootstrapFailed`] when all write-once
    /// registers are consumed (no more component upgrades possible).
    pub fn burn_counterpart(&mut self, key: &RsaPublicKey) -> Result<(), ObfusMemError> {
        if self.burned_fingerprints.len() >= self.register_slots {
            return Err(ObfusMemError::BootstrapFailed(
                "write-once key registers exhausted".into(),
            ));
        }
        self.burned_fingerprints.push(key.fingerprint());
        Ok(())
    }

    /// True if `key` matches any burned register.
    pub fn trusts(&self, key: &RsaPublicKey) -> bool {
        self.burned_fingerprints.contains(&key.fingerprint())
    }

    /// Produces a signed attestation measurement: hardware capability
    /// string + own public key, signed with the device key (the SGX-like
    /// flow of the untrusted-integrator approach).
    pub fn attest(&self) -> Attestation {
        let measurement =
            Self::measurement_bytes(self.identity.cert().capabilities(), self.identity.public());
        Attestation {
            capabilities: self.identity.cert().capabilities().to_string(),
            public: self.identity.public().clone(),
            signature: self.identity.sign_measurement(&measurement),
        }
    }

    fn measurement_bytes(capabilities: &str, public: &RsaPublicKey) -> Vec<u8> {
        let mut m = Vec::new();
        m.extend_from_slice(b"obfusmem-measurement-v1");
        m.extend_from_slice(&(capabilities.len() as u64).to_le_bytes());
        m.extend_from_slice(capabilities.as_bytes());
        m.extend_from_slice(&public.fingerprint());
        m
    }
}

/// A signed measurement another component can verify.
#[derive(Debug, Clone)]
pub struct Attestation {
    capabilities: String,
    public: RsaPublicKey,
    signature: obfusmem_crypto::rsa::Signature,
}

impl Attestation {
    /// Verifies the measurement signature and the capability statement,
    /// and checks the attested key against the verifier's burned register.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::BootstrapFailed`] naming the first check
    /// that failed.
    pub fn verify_against(
        &self,
        verifier: &Component,
        required_capability: &str,
    ) -> Result<(), ObfusMemError> {
        let measurement = Component::measurement_bytes(&self.capabilities, &self.public);
        self.public
            .verify(&measurement, &self.signature)
            .map_err(|_| ObfusMemError::BootstrapFailed("measurement signature invalid".into()))?;
        if !self.capabilities.contains(required_capability) {
            return Err(ObfusMemError::BootstrapFailed(format!(
                "counterpart lacks capability {required_capability:?}"
            )));
        }
        if !verifier.trusts(&self.public) {
            return Err(ObfusMemError::BootstrapFailed(
                "attested key does not match burned register (integrator error or attack)".into(),
            ));
        }
        Ok(())
    }
}

/// The outcome of a successful boot: per-channel session keys.
#[derive(Debug)]
pub struct EstablishedTrust {
    /// `(session key, nonce)` per memory channel, for
    /// [`crate::session::SessionKeyTable`].
    pub channel_keys: Vec<([u8; 16], u64)>,
    /// Which approach produced it.
    pub approach: BootstrapApproach,
}

/// Builds a complete simulated platform and runs the bootstrap.
///
/// This is the "system integrator in a function": it fabricates a
/// processor and `channels` memory modules from two manufacturers, burns
/// keys per the chosen approach, verifies per the approach, and runs the
/// per-channel DH exchanges.
///
/// `sabotage` simulates a malicious/erroneous integrator burning the wrong
/// memory key into the processor — which the untrusted-integrator approach
/// must detect and the trusted-integrator approach (by assumption) cannot.
///
/// # Errors
///
/// Returns [`ObfusMemError::BootstrapFailed`] when attestation detects a
/// bad burn, or propagates crypto failures.
pub fn bootstrap_platform(
    approach: BootstrapApproach,
    channels: usize,
    sabotage: bool,
    mut next_rand: impl FnMut() -> u64,
) -> Result<EstablishedTrust, ObfusMemError> {
    let key_bits = 256; // small keys keep simulations fast; flows identical
    let mut cpu_maker = Manufacturer::new("CPUCo", key_bits, &mut next_rand)?;
    let mut mem_maker = Manufacturer::new("MemCo", key_bits, &mut next_rand)?;

    let mut processor = Component::new(
        cpu_maker.fabricate(DeviceKind::Processor, "obfusmem-v1", &mut next_rand)?,
        4,
    );
    let mut memories: Vec<Component> = (0..channels)
        .map(|_| {
            Ok(Component::new(
                mem_maker.fabricate(DeviceKind::Memory, "obfusmem-v1", &mut next_rand)?,
                4,
            ))
        })
        .collect::<Result<_, ObfusMemError>>()?;

    // A decoy identity the saboteur burns instead of the real one.
    let decoy = mem_maker.fabricate(DeviceKind::Memory, "obfusmem-v1", &mut next_rand)?;

    // Key installation.
    match approach {
        BootstrapApproach::Naive => {
            // Keys exchanged in the clear at boot: burn whatever arrives.
            for m in &mut memories {
                processor.burn_counterpart(m.identity().public())?;
                m.burn_counterpart(processor.identity().public())?;
            }
        }
        BootstrapApproach::TrustedIntegrator | BootstrapApproach::UntrustedIntegrator => {
            for (i, m) in memories.iter_mut().enumerate() {
                let burned = if sabotage && i == 0 {
                    decoy.public()
                } else {
                    m.identity().public()
                };
                processor.burn_counterpart(burned)?;
                m.burn_counterpart(processor.identity().public())?;
            }
        }
    }

    // Verification per approach.
    if approach == BootstrapApproach::UntrustedIntegrator {
        for m in &memories {
            // Memory attests to the processor and vice versa.
            m.attest().verify_against(&processor, "obfusmem")?;
            processor.attest().verify_against(m, "obfusmem")?;
        }
    }

    // Per-channel Diffie–Hellman session establishment.
    let mut channel_keys = Vec::with_capacity(channels);
    for _ in &memories {
        let proc_dh = DhKeyPair::generate(&mut next_rand);
        let mem_dh = DhKeyPair::generate(&mut next_rand);
        let k_proc = proc_dh.session_key(mem_dh.public())?;
        let k_mem = mem_dh.session_key(proc_dh.public())?;
        debug_assert_eq!(k_proc, k_mem);
        // Nonce derived from both public values (public, agreed).
        let mut h = Sha1::new();
        h.update(&proc_dh.public().to_bytes_be());
        h.update(&mem_dh.public().to_bytes_be());
        let digest = h.finalize();
        let nonce = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
        channel_keys.push((k_proc, nonce));
    }

    Ok(EstablishedTrust {
        channel_keys,
        approach,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s ^ (s >> 29)
        }
    }

    #[test]
    fn all_approaches_bootstrap_clean_systems() {
        for approach in [
            BootstrapApproach::Naive,
            BootstrapApproach::TrustedIntegrator,
            BootstrapApproach::UntrustedIntegrator,
        ] {
            let trust = bootstrap_platform(approach, 2, false, rng(1)).unwrap();
            assert_eq!(trust.channel_keys.len(), 2);
            assert_ne!(trust.channel_keys[0].0, trust.channel_keys[1].0);
        }
    }

    #[test]
    fn untrusted_integrator_detects_sabotage() {
        let err = bootstrap_platform(BootstrapApproach::UntrustedIntegrator, 2, true, rng(2))
            .unwrap_err();
        assert!(
            matches!(err, ObfusMemError::BootstrapFailed(_)),
            "got {err}"
        );
    }

    #[test]
    fn trusted_integrator_cannot_detect_sabotage() {
        // The documented limitation: if the integrator is trusted but
        // wrong, boot succeeds with a decoy key burned.
        let trust =
            bootstrap_platform(BootstrapApproach::TrustedIntegrator, 2, true, rng(3)).unwrap();
        assert_eq!(trust.channel_keys.len(), 2);
    }

    #[test]
    fn registers_are_write_once_and_bounded() {
        let mut r = rng(4);
        let mut maker = Manufacturer::new("M", 256, &mut r).unwrap();
        let id = maker
            .fabricate(DeviceKind::Memory, "obfusmem-v1", &mut r)
            .unwrap();
        let other = maker
            .fabricate(DeviceKind::Memory, "obfusmem-v1", &mut r)
            .unwrap();
        let mut c = Component::new(id, 2);
        c.burn_counterpart(other.public()).unwrap();
        c.burn_counterpart(other.public()).unwrap();
        assert!(matches!(
            c.burn_counterpart(other.public()),
            Err(ObfusMemError::BootstrapFailed(_))
        ));
    }

    #[test]
    fn attestation_rejects_wrong_capability() {
        let mut r = rng(5);
        let mut maker = Manufacturer::new("M", 256, &mut r).unwrap();
        let plain = maker
            .fabricate(DeviceKind::Memory, "plain-ddr4", &mut r)
            .unwrap();
        let verifier_id = maker
            .fabricate(DeviceKind::Processor, "obfusmem-v1", &mut r)
            .unwrap();
        let mut verifier = Component::new(verifier_id, 2);
        let plain_component = Component::new(plain, 2);
        verifier
            .burn_counterpart(plain_component.identity().public())
            .unwrap();
        let err = plain_component
            .attest()
            .verify_against(&verifier, "obfusmem")
            .unwrap_err();
        assert!(err.to_string().contains("capability"));
    }

    #[test]
    fn component_upgrade_uses_spare_register() {
        // Burn a replacement module's key into a spare slot: both old and
        // new keys are then trusted.
        let mut r = rng(6);
        let trust = bootstrap_platform(BootstrapApproach::TrustedIntegrator, 1, false, rng(7));
        assert!(trust.is_ok());
        let mut maker = Manufacturer::new("M", 256, &mut r).unwrap();
        let proc = maker
            .fabricate(DeviceKind::Processor, "obfusmem-v1", &mut r)
            .unwrap();
        let old_mem = maker
            .fabricate(DeviceKind::Memory, "obfusmem-v1", &mut r)
            .unwrap();
        let new_mem = maker
            .fabricate(DeviceKind::Memory, "obfusmem-v1", &mut r)
            .unwrap();
        let mut c = Component::new(proc, 4);
        c.burn_counterpart(old_mem.public()).unwrap();
        c.burn_counterpart(new_mem.public()).unwrap();
        assert!(c.trusts(old_mem.public()));
        assert!(c.trusts(new_mem.public()));
    }
}
