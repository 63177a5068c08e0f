//! A forwarding `Substrate` that lets the benchmark see calls a layer
//! above makes into a backend it owns (the fleet world's shard pool):
//! every call goes straight to the wrapped backend; `invoke_batch` is
//! wrapped in a span and counted, and cross-shard charges are counted.

use std::cell::RefCell;
use std::rc::Rc;

use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_substrate::attacker::SubstrateProfile;
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::component::Component;
use lateral_substrate::fabric::{CrossingCostModel, Fabric};
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::{DomainId, SubstrateError};
use lateral_telemetry::profile::CrossingProfile;
use lateral_telemetry::Telemetry;

use crate::trace::Tracer;

/// What the probes saw, shared with the benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeLog {
    /// `invoke` + `invoke_batch` calls.
    pub calls: u64,
    /// Payloads dispatched by those calls.
    pub payloads: u64,
    /// Cross-shard crossings charged (`charge_cycles` calls).
    pub xshard: u64,
    /// Logical ticks the wrapped backends charged for those calls.
    pub clock: u64,
    /// Telemetry spans the wrapped backends recorded in those calls.
    pub spans: u64,
}

/// A backend wrapped for observation.
pub struct Probe {
    inner: Box<dyn Substrate>,
    log: Rc<RefCell<ProbeLog>>,
    tracer: Tracer,
}

impl Probe {
    /// Wraps `inner`; its calls land in `log` and spans in `tracer`.
    pub fn new(inner: Box<dyn Substrate>, log: Rc<RefCell<ProbeLog>>, tracer: Tracer) -> Probe {
        Probe { inner, log, tracer }
    }

    fn spans(&self) -> u64 {
        self.inner
            .telemetry_ref()
            .map_or(0, Telemetry::spans_recorded)
    }

    fn note(&self, payloads: usize, (clock, spans): (u64, u64)) {
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        log.payloads += payloads as u64;
        log.clock += self.inner.now() - clock;
        log.spans += self.spans() - spans;
    }
}

impl Substrate for Probe {
    fn profile(&self) -> &SubstrateProfile {
        self.inner.profile()
    }
    fn spawn(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        self.inner.spawn(spec, component)
    }
    fn destroy(&mut self, domain: DomainId) -> Result<(), SubstrateError> {
        self.inner.destroy(domain)
    }
    fn grant_channel(
        &mut self,
        from: DomainId,
        to: DomainId,
        badge: Badge,
    ) -> Result<ChannelCap, SubstrateError> {
        self.inner.grant_channel(from, to, badge)
    }
    fn revoke_channel(&mut self, cap: &ChannelCap) -> Result<(), SubstrateError> {
        self.inner.revoke_channel(cap)
    }
    fn invoke(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        let before = (self.inner.now(), self.spans());
        let out = self.tracer.span("substrate.fabric.invoke", || {
            self.inner.invoke(caller, cap, data)
        });
        self.note(1, before);
        out
    }
    fn invoke_batch(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        payloads: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, SubstrateError> {
        let before = (self.inner.now(), self.spans());
        let out = self.tracer.span("substrate.fabric.invoke_batch", || {
            self.inner.invoke_batch(caller, cap, payloads)
        });
        self.note(payloads.len(), before);
        out
    }
    fn measurement(&self, domain: DomainId) -> Result<Digest, SubstrateError> {
        self.inner.measurement(domain)
    }
    fn domain_name(&self, domain: DomainId) -> Result<String, SubstrateError> {
        self.inner.domain_name(domain)
    }
    fn seal(&mut self, domain: DomainId, data: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        self.inner.seal(domain, data)
    }
    fn unseal(&mut self, domain: DomainId, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        self.inner.unseal(domain, sealed)
    }
    fn attest(
        &mut self,
        domain: DomainId,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        self.inner.attest(domain, report_data)
    }
    fn platform_verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        self.inner.platform_verifying_key()
    }
    fn mem_read(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        self.inner.mem_read(domain, offset, len)
    }
    fn mem_write(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        self.inner.mem_write(domain, offset, data)
    }
    fn rng_u64(&mut self, domain: DomainId) -> u64 {
        self.inner.rng_u64(domain)
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn charge_cycles(&mut self, cycles: u64) {
        let mut log = self.log.borrow_mut();
        log.xshard += 1;
        log.clock += cycles;
        self.inner.charge_cycles(cycles);
    }
    fn list_caps(&self, domain: DomainId) -> Result<Vec<ChannelCap>, SubstrateError> {
        self.inner.list_caps(domain)
    }
    fn fabric_ref(&self) -> Option<&Fabric> {
        self.inner.fabric_ref()
    }
    fn fabric_mut_ref(&mut self) -> Option<&mut Fabric> {
        self.inner.fabric_mut_ref()
    }
    fn telemetry_ref(&self) -> Option<&Telemetry> {
        self.inner.telemetry_ref()
    }
    fn telemetry_mut_ref(&mut self) -> Option<&mut Telemetry> {
        self.inner.telemetry_mut_ref()
    }
    fn cost_model(&self) -> Option<CrossingCostModel> {
        self.inner.cost_model()
    }
    fn crossing_profile(&self) -> Option<CrossingProfile> {
        self.inner.crossing_profile()
    }
}
