//! Integration: generic cross-machine composition through
//! `lateral_core::remote` — two independently composed assemblies on
//! different (simulated) machines, connected by an attested channel over
//! the adversarial network.

use lateral::core::composer::{compose, Assembly};
use lateral::core::manifest::{AppManifest, ComponentManifest};
use lateral::core::remote::{call, establish, RemoteClient, RemoteServer, ServiceExport};
use lateral::crypto::sign::SigningKey;
use lateral::hw::machine::MachineBuilder;
use lateral::net::channel::ChannelPolicy;
use lateral::net::sim::{AttackMode, Network};
use lateral::net::Addr;
use lateral::sgx::Sgx;
use lateral::substrate::attacker::AttackerModel;
use lateral::substrate::attest::TrustPolicy;
use lateral::substrate::cap::Badge;
use lateral::substrate::component::Component;
use lateral::substrate::software::SoftwareSubstrate;
use lateral::substrate::substrate::Substrate;
use lateral::substrate::testkit::{Counter, Echo, Sealer};
use lateral::telemetry::{outcome, SpanId};

fn factory(cm: &ComponentManifest) -> Option<Box<dyn Component>> {
    Some(match cm.name.as_str() {
        "vault" => Box::new(Sealer),
        _ => Box::new(Echo),
    })
}

/// The server machine: an SGX pool hosting the vault in an enclave.
fn server_assembly() -> Assembly {
    let sgx = Sgx::new(
        MachineBuilder::new()
            .name("cloud-server")
            .frames(256)
            .build(),
        "cloud",
    );
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(sgx)];
    let app = AppManifest::new(
        "vault-service",
        vec![ComponentManifest::new("vault")
            .image(b"vault v1 (audited)")
            .requires(&[AttackerModel::RemoteSoftware, AttackerModel::PhysicalBus])],
    );
    compose(&app, pool, &mut factory).unwrap()
}

fn client_assembly() -> Assembly {
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("laptop"))];
    let app = AppManifest::new("client-app", vec![ComponentManifest::new("ui")]);
    compose(&app, pool, &mut factory).unwrap()
}

fn vault_trust(server_asm: &Assembly) -> TrustPolicy {
    // The client publishes/pins: the SGX quoting key of the cloud
    // provider and the audited vault measurement.
    let mut trust = TrustPolicy::new();
    // Reconstruct the platform key from an identical machine (the
    // "manufacturer endorsement list" in the sim is deterministic).
    let sgx = Sgx::new(
        MachineBuilder::new()
            .name("cloud-server")
            .frames(256)
            .build(),
        "cloud",
    );
    trust.trust_platform(sgx.platform_verifying_key().unwrap());
    trust.expect_measurement(server_asm.measurement("vault").unwrap());
    trust
}

#[test]
fn attested_remote_vault_round_trip() {
    let mut net = Network::new("dist");
    let mut server_asm = server_assembly();
    let trust = vault_trust(&server_asm);
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("vault.cloud.example"),
        ServiceExport {
            component: "vault".into(),
            badge: Badge(0x0B57),
            identity: SigningKey::from_seed(b"vault channel id"),
            client_policy: ChannelPolicy::open(),
            attest: true,
        },
    );
    let mut client_asm = client_assembly();
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("laptop.example"),
        Addr::new("vault.cloud.example"),
        SigningKey::from_seed(b"laptop id"),
        ChannelPolicy::open().with_attestation(trust),
        None,
    );
    establish(
        &mut net,
        &mut client,
        Some(&mut client_asm),
        &mut server,
        &mut server_asm,
    )
    .unwrap();
    // The client now KNOWS it talks to the audited vault in a genuine
    // enclave.
    let peer = client.peer().unwrap();
    assert_eq!(
        peer.attested.as_ref().unwrap().measurement,
        server_asm.measurement("vault").unwrap()
    );
    // Round trip: seal remotely, unseal remotely.
    let sealed = call(
        &mut net,
        &mut client,
        &mut server,
        &mut server_asm,
        b"s:my secret",
    )
    .unwrap();
    let mut req = b"u:".to_vec();
    req.extend_from_slice(&sealed);
    let plain = call(&mut net, &mut client, &mut server, &mut server_asm, &req).unwrap();
    assert_eq!(plain, b"my secret");
}

#[test]
fn trojaned_vault_image_is_rejected_before_any_request() {
    let mut net = Network::new("dist-trojan");
    // The provider silently deploys a different vault build.
    let sgx = Sgx::new(
        MachineBuilder::new()
            .name("cloud-server")
            .frames(256)
            .build(),
        "cloud",
    );
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(sgx)];
    let app = AppManifest::new(
        "vault-service",
        vec![ComponentManifest::new("vault")
            .image(b"vault v1 (with backdoor)")
            .requires(&[AttackerModel::RemoteSoftware, AttackerModel::PhysicalBus])],
    );
    let mut server_asm = compose(&app, pool, &mut factory).unwrap();
    // The client still expects the audited build.
    let trust = vault_trust(&server_assembly());
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("vault.cloud.example"),
        ServiceExport {
            component: "vault".into(),
            badge: Badge(1),
            identity: SigningKey::from_seed(b"vault channel id"),
            client_policy: ChannelPolicy::open(),
            attest: true,
        },
    );
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("laptop.example"),
        Addr::new("vault.cloud.example"),
        SigningKey::from_seed(b"laptop id"),
        ChannelPolicy::open().with_attestation(trust),
        None,
    );
    let err = establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap_err();
    assert!(err.to_string().contains("handshake"), "{err}");
    assert!(!client.connected());
}

#[test]
fn in_path_corruption_downgrades_to_denial_of_service() {
    let mut net = Network::new("dist-corrupt");
    net.set_attack(AttackMode::CorruptAll);
    let mut server_asm = server_assembly();
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("vault.cloud.example"),
        ServiceExport {
            component: "vault".into(),
            badge: Badge(1),
            identity: SigningKey::from_seed(b"vault channel id"),
            client_policy: ChannelPolicy::open(),
            attest: false,
        },
    );
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("laptop.example"),
        Addr::new("vault.cloud.example"),
        SigningKey::from_seed(b"laptop id"),
        ChannelPolicy::open(),
        None,
    );
    assert!(establish(&mut net, &mut client, None, &mut server, &mut server_asm).is_err());
    assert!(!client.connected());
}

#[test]
fn vault_lands_in_an_enclave_by_requirement() {
    let asm = server_assembly();
    assert_eq!(asm.substrate_of("vault").unwrap(), "sgx");
}

#[test]
fn multiplexed_trace_propagation_is_uniform_across_all_six_backends() {
    // E12's guarantee extended to the session layer: on every backend,
    // interleaved in-flight requests each land as a child span of their
    // own caller — never of the session opener or a sibling request.
    for sub in lateral_bench::e2_conformance::all_substrates() {
        assert_multiplexed_trace_propagation(sub);
    }
}

/// On `sub`, interleaved multiplexed requests must each land as a child
/// span of **their own caller**, never of the session opener or a
/// sibling — the E12 guarantee extended to the session layer. Panics,
/// naming the backend, when the per-request span lineage breaks.
fn assert_multiplexed_trace_propagation(sub: Box<dyn Substrate>) {
    let backend = sub.profile().name.clone();
    let mut factory = |_: &ComponentManifest| -> Option<Box<dyn Component>> {
        Some(Box::new(Counter::default()))
    };
    let manifest = AppManifest::new("mux-parity", vec![ComponentManifest::new("counter")]);
    let mut asm = compose(&manifest, vec![sub], &mut factory)
        .unwrap_or_else(|e| panic!("[{backend}] compose: {e}"));

    let mut net = Network::new(&format!("mux-{backend}"));
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("svc"),
        ServiceExport {
            component: "counter".into(),
            badge: Badge(0xB0B),
            identity: SigningKey::from_seed(b"mux parity server"),
            client_policy: ChannelPolicy::open(),
            attest: false,
        },
    );
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("client"),
        Addr::new("svc"),
        SigningKey::from_seed(b"mux parity client"),
        ChannelPolicy::open(),
        None,
    );
    establish(&mut net, &mut client, None, &mut server, &mut asm)
        .unwrap_or_else(|e| panic!("[{backend}] establish: {e}"));

    let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8]).collect();
    let mut ids = Vec::new();
    for p in &payloads {
        ids.push(
            client
                .submit(p)
                .unwrap_or_else(|e| panic!("[{backend}] submit: {e}")),
        );
    }
    assert_eq!(
        client.in_flight(),
        4,
        "[{backend}] all four requests in flight before the flush"
    );
    client
        .flush(&mut net)
        .unwrap_or_else(|e| panic!("[{backend}] flush: {e}"));
    server
        .pump(&mut net, &mut asm)
        .unwrap_or_else(|e| panic!("[{backend}] pump: {e}"));
    let replies = client
        .poll_group_replies(&mut net)
        .unwrap_or_else(|e| panic!("[{backend}] poll: {e}"));
    assert_eq!(replies.len(), 4, "[{backend}] every request answered");
    let reply_ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
    assert_eq!(reply_ids, ids, "[{backend}] deterministic ascending order");
    for (id, result) in &replies {
        result
            .as_ref()
            .unwrap_or_else(|e| panic!("[{backend}] request {id} failed: {e}"));
    }
    assert_eq!(client.in_flight(), 0, "[{backend}] window fully drained");

    // Client side: each request span is a *sibling* under the session
    // root, in the root trace.
    let t = client.telemetry();
    let root = client.session_span();
    let root_trace = t
        .open_spans()
        .find(|s| s.id == root)
        .unwrap_or_else(|| panic!("[{backend}] session root still open"))
        .trace_id;
    let request_spans: Vec<_> = t.spans().filter(|s| &*s.name == "request").collect();
    assert_eq!(request_spans.len(), 4, "[{backend}] four request spans");
    for s in &request_spans {
        assert_eq!(
            s.parent, root,
            "[{backend}] request span parents on the session root, not a sibling"
        );
        assert_eq!(s.trace_id, root_trace, "[{backend}] in the root trace");
        assert_eq!(s.outcome, outcome::OK, "[{backend}] ended OK");
    }
    // Server side: each serve span adopted its own caller's context —
    // same trace, parented on the matching request span, all distinct.
    let serves: Vec<_> = server
        .telemetry()
        .spans()
        .filter(|s| &*s.name == "serve counter")
        .cloned()
        .collect();
    assert_eq!(serves.len(), 4, "[{backend}] four serve spans");
    let mut serve_parents: Vec<SpanId> = serves.iter().map(|s| s.parent).collect();
    serve_parents.sort();
    serve_parents.dedup();
    assert_eq!(
        serve_parents.len(),
        4,
        "[{backend}] serve spans parent on four DISTINCT request spans"
    );
    let request_ids: std::collections::BTreeSet<SpanId> =
        request_spans.iter().map(|s| s.id).collect();
    for s in &serves {
        assert_eq!(s.trace_id, root_trace, "[{backend}] serve in caller trace");
        assert!(
            request_ids.contains(&s.parent),
            "[{backend}] serve span parents on a request span, not the session opener"
        );
    }
}
