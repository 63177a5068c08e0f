//! A Secure Enclave Processor (SEP) substrate.
//!
//! §II-B: Apple's SEP "is separated from the main application CPU,
//! accesses DRAM with inline encryption and runs an L4-style microkernel
//! … By using a dedicated processor, this construction offers strong
//! isolation with reduced side channel opportunities … But similar to
//! TrustZone, SEP is inflexible and offers only two separated execution
//! environments." The model:
//!
//! * Trusted components spawn *on the coprocessor*, backed by
//!   [`FrameOwner::SepPrivate`] frames: the main CPU and all devices are
//!   blocked, and the inline encryption shows a bus probe only
//!   ciphertext (writes are integrity-detected).
//! * The main CPU hosts untrusted domains; every call crossing the
//!   processor boundary pays a mailbox round trip — the most expensive
//!   local invocation in the E4 cost ladder.
//! * Because the SEP has its own caches, components on it do not share
//!   the application CPU's cache — no cross-boundary prime+probe, hence
//!   `temporal_isolation: true` ("reduced side channel opportunities").
//! * A fused key ([`lateral_hw::fuse::FuseAccess::SepOnly`]) roots
//!   sealing and attestation, like the on-device HSM the paper compares
//!   the SEP to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use lateral_crypto::aead::Aead;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::{SigningKey, VerifyingKey};
use lateral_crypto::Digest;
use lateral_hw::fuse::FuseAccess;
use lateral_hw::machine::Machine;
use lateral_hw::mem::{Frame, FrameOwner};
use lateral_hw::mmu::{AddressSpace, Rights};
use lateral_hw::{Initiator, VirtAddr, World, PAGE_SIZE};
use lateral_substrate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::component::Component;
use lateral_substrate::fabric::{self, BackendPolicy, CrossingKind, DomainKind, Fabric};
use lateral_substrate::substrate::DomainSpec;
use lateral_substrate::{DomainId, SubstrateError};

/// Name of the fused SEP root key (the UID fused at manufacture).
pub const SEP_KEY_FUSE: &str = "sep-uid";

struct SepDomain {
    aspace: AddressSpace,
    frames: Vec<Frame>,
    /// `true` for coprocessor-side (trusted) domains.
    on_sep: bool,
}

/// The SEP substrate: coprocessor services + application-CPU hosts.
pub struct Sep {
    machine: Machine,
    fabric: Fabric,
    kstate: BTreeMap<DomainId, SepDomain>,
    attest_key: SigningKey,
    rng: Drbg,
    profile: SubstrateProfile,
}

impl std::fmt::Debug for Sep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sep({} domains on '{}')",
            self.fabric.table().len(),
            self.machine.name
        )
    }
}

impl Sep {
    /// Initializes the SEP on `machine`, burning the UID fuse on fresh
    /// machines.
    pub fn new(mut machine: Machine, seed: &str) -> Sep {
        let mut rng = Drbg::from_seed(&[b"lateral.sep.", seed.as_bytes()].concat());
        if !machine.fuses.is_locked() {
            let key = rng.gen_key();
            machine
                .fuses
                .burn(SEP_KEY_FUSE, key, FuseAccess::SepOnly)
                .expect("burning on an unlocked bank succeeds");
            machine.fuses.lock();
        }
        let uid = machine
            .fuses
            .read(Initiator::Sep, SEP_KEY_FUSE)
            .expect("SEP reads its fuse");
        let attest_key =
            SigningKey::from_seed(&[b"sep-attest".as_slice(), uid.as_slice()].concat());
        Sep {
            machine,
            fabric: Fabric::new(),
            kstate: BTreeMap::new(),
            attest_key,
            rng,
            profile: SubstrateProfile {
                name: "sep".to_string(),
                defends: models(&[
                    AttackerModel::RemoteSoftware,
                    AttackerModel::CompromisedOs,
                    AttackerModel::MaliciousDevice,
                    AttackerModel::PhysicalBus,
                    AttackerModel::PhysicalBoot,
                ]),
                features: Features {
                    spatial_isolation: true,
                    temporal_isolation: true,
                    memory_encryption: true,
                    trust_anchor: true,
                    attestation: true,
                    sealed_storage: true,
                    // "Only two separated execution environments": the
                    // coprocessor is one fixed trusted environment.
                    max_trusted_domains: Some(1),
                    hosts_legacy_os: true,
                },
                // An L4-style microkernel plus fixed services.
                tcb_loc: 15_000,
            },
        }
    }

    /// Access to the underlying machine (attack injection).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Immutable machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    /// Spawns an untrusted domain on the application CPU.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] on memory exhaustion.
    pub fn spawn_host(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        fabric::spawn(self, spec, component, DomainKind::Untrusted)
    }

    /// Whether a domain runs on the coprocessor.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn on_sep(&self, domain: DomainId) -> Result<bool, SubstrateError> {
        Ok(self.kdomain(domain)?.on_sep)
    }

    /// Physical frames backing a domain (for probe experiments).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn domain_frames(&self, domain: DomainId) -> Result<Vec<Frame>, SubstrateError> {
        Ok(self.kdomain(domain)?.frames.clone())
    }

    const MEM_BASE: u64 = 0x10_0000;

    fn kdomain(&self, id: DomainId) -> Result<&SepDomain, SubstrateError> {
        self.kstate.get(&id).ok_or(SubstrateError::NoSuchDomain(id))
    }

    fn initiator_for(&self, id: DomainId) -> Result<Initiator, SubstrateError> {
        Ok(if self.kdomain(id)?.on_sep {
            Initiator::Sep
        } else {
            Initiator::cpu(World::Normal)
        })
    }

    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        self.machine
            .fuses
            .derive(
                SEP_KEY_FUSE,
                &[b"seal".as_slice(), measurement.as_bytes()].concat(),
            )
            .expect("UID fuse present")
    }
}

impl BackendPolicy for Sep {
    fn describe(&self) -> &SubstrateProfile {
        &self.profile
    }

    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn place(&mut self, id: DomainId, kind: DomainKind) -> Result<(), SubstrateError> {
        let on_sep = matches!(kind, DomainKind::Trusted);
        let owner = if on_sep {
            FrameOwner::SepPrivate
        } else {
            FrameOwner::Normal
        };
        let pages = self.fabric.table().get(id)?.spec.mem_pages.max(1);
        let frames = self
            .machine
            .mem
            .alloc_n(owner, pages)
            .map_err(|e| SubstrateError::OutOfResources(e.to_string()))?;
        let mut aspace = AddressSpace::new();
        for (i, frame) in frames.iter().enumerate() {
            aspace.map(
                VirtAddr(Self::MEM_BASE + (i * PAGE_SIZE) as u64),
                *frame,
                Rights::RW,
            );
        }
        self.kstate.insert(
            id,
            SepDomain {
                aspace,
                frames,
                on_sep,
            },
        );
        Ok(())
    }

    fn unplace(&mut self, id: DomainId) {
        if let Some(k) = self.kstate.remove(&id) {
            for frame in k.frames {
                self.machine.mem.free(frame);
            }
        }
    }

    fn crossing(&self, caller: DomainId, target: DomainId) -> Result<CrossingKind, SubstrateError> {
        // Crossing the processor boundary costs a mailbox round trip;
        // same-side calls are ordinary IPC.
        if self.kdomain(caller)?.on_sep == self.kdomain(target)?.on_sep {
            Ok(CrossingKind::Ipc)
        } else {
            Ok(CrossingKind::Mailbox)
        }
    }

    fn crossing_cost(&self, kind: CrossingKind, bytes: usize) -> u64 {
        let base = match kind {
            CrossingKind::Mailbox => 2 * self.machine.costs.sep_mailbox,
            _ => self.machine.costs.ipc_round_trip,
        };
        base + self.machine.costs.copy_cost(bytes)
    }

    fn cost_model(&self) -> fabric::CrossingCostModel {
        // Same processor side → IPC; crossing to/from the SEP → a
        // mailbox round trip.
        let c = &self.machine.costs;
        let mut m = fabric::CrossingCostModel::uniform(
            &self.profile.name,
            c.ipc_round_trip,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
            fabric::InvokeKindRule::SameSideElse {
                same: CrossingKind::Ipc,
                cross: CrossingKind::Mailbox,
            },
        );
        m.set(
            CrossingKind::Mailbox,
            2 * c.sep_mailbox,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
        );
        m
    }

    fn advance_clock(&mut self, cycles: u64) {
        self.machine.clock.advance(cycles);
    }

    fn clock(&self) -> u64 {
        self.machine.clock.now()
    }

    fn rng_root(&mut self) -> (&mut Drbg, &'static str) {
        (&mut self.rng, "domain")
    }

    fn seal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        if !self.kdomain(domain)?.on_sep {
            return Err(SubstrateError::Unsupported(
                "sealing is a coprocessor service".into(),
            ));
        }
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"sep.seal", data))
    }

    fn unseal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        if !self.kdomain(domain)?.on_sep {
            return Err(SubstrateError::Unsupported(
                "unsealing is a coprocessor service".into(),
            ));
        }
        Aead::new(&self.seal_key(measurement))
            .open(0, b"sep.seal", sealed)
            .map_err(|_| {
                SubstrateError::CryptoFailure(
                    "unseal failed: wrong identity or tampered blob".into(),
                )
            })
    }

    fn attest_evidence(
        &mut self,
        domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        if !self.kdomain(domain)?.on_sep {
            return Err(SubstrateError::Unsupported(
                "only coprocessor components can be attested".into(),
            ));
        }
        Ok(AttestationEvidence::sign(
            "sep",
            &self.attest_key,
            measurement,
            Digest::ZERO,
            report_data,
        ))
    }

    fn attestation_key(&self) -> Result<VerifyingKey, SubstrateError> {
        Ok(self.attest_key.verifying_key())
    }

    fn read_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        let initiator = self.initiator_for(domain)?;
        let aspace = &self.kstate[&domain].aspace;
        self.machine
            .mapped_read(aspace, initiator, Self::MEM_BASE, offset, len)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let initiator = self.initiator_for(domain)?;
        let aspace = &self.kstate[&domain].aspace;
        self.machine
            .mapped_write(aspace, initiator, Self::MEM_BASE, offset, data)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_hw::machine::MachineBuilder;
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::Echo;

    fn sep() -> Sep {
        let machine = MachineBuilder::new().name("sep-test").frames(128).build();
        Sep::new(machine, "test")
    }

    #[test]
    fn conformance_suite_passes() {
        let mut s = sep();
        let report = conformance::run(&mut s);
        for c in &report.checks {
            assert!(
                c.outcome.acceptable(),
                "feature {} failed: {}",
                c.feature,
                c.outcome
            );
        }
    }

    #[test]
    fn app_cpu_cannot_touch_sep_memory() {
        let mut s = sep();
        let svc = s
            .spawn(DomainSpec::named("biometrics"), Box::new(Echo))
            .unwrap();
        s.mem_write(svc, 0, b"fingerprint template").unwrap();
        let frame = s.domain_frames(svc).unwrap()[0];
        assert!(s
            .machine()
            .bus_read(Initiator::cpu(World::Normal), frame.base(), 8)
            .is_err());
        assert!(s
            .machine()
            .bus_read(Initiator::cpu(World::Secure), frame.base(), 8)
            .is_err());
    }

    #[test]
    fn probe_sees_ciphertext_thanks_to_inline_encryption() {
        let mut s = sep();
        let svc = s.spawn(DomainSpec::named("keys"), Box::new(Echo)).unwrap();
        s.mem_write(svc, 0, b"class key").unwrap();
        let frame = s.domain_frames(svc).unwrap()[0];
        let view = s
            .machine()
            .bus_read(Initiator::Probe, frame.base(), 9)
            .unwrap();
        assert_ne!(view, b"class key");
    }

    #[test]
    fn mailbox_crossing_is_most_expensive_local_call() {
        let mut s = sep();
        let svc = s.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        let svc2 = s.spawn(DomainSpec::named("svc2"), Box::new(Echo)).unwrap();
        let app = s
            .spawn_host(DomainSpec::named("app"), Box::new(Echo))
            .unwrap();
        let internal = s.grant_channel(svc, svc2, Badge(0)).unwrap();
        let mailbox = s.grant_channel(app, svc, Badge(0)).unwrap();
        let t0 = s.now();
        s.invoke(svc, &internal, b"x").unwrap();
        let internal_cost = s.now() - t0;
        let t1 = s.now();
        s.invoke(app, &mailbox, b"x").unwrap();
        let mailbox_cost = s.now() - t1;
        assert!(mailbox_cost > internal_cost);
    }

    #[test]
    fn host_domains_cannot_seal_or_attest() {
        let mut s = sep();
        let app = s
            .spawn_host(DomainSpec::named("app"), Box::new(Echo))
            .unwrap();
        assert!(matches!(
            s.seal(app, b"x"),
            Err(SubstrateError::Unsupported(_))
        ));
        assert!(matches!(
            s.attest(app, b"x"),
            Err(SubstrateError::Unsupported(_))
        ));
    }

    #[test]
    fn uid_rooted_identity_is_stable() {
        let a = sep();
        let k1 = a.platform_verifying_key().unwrap();
        let machine = MachineBuilder::new().name("sep-test").frames(128).build();
        let b = Sep::new(machine, "test");
        assert_eq!(
            k1.to_bytes(),
            b.platform_verifying_key().unwrap().to_bytes()
        );
    }
}
