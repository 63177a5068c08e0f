//! The six isolation backends, built the same way for every workload.

use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_flicker::Flicker;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_sep::Sep;
use lateral_sgx::Sgx;
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::Substrate;
use lateral_trustzone::TrustZone;

/// Backend labels, in construction order.
pub const NAMES: [&str; 6] = [
    "software",
    "microkernel",
    "trustzone",
    "sgx",
    "sep",
    "flicker",
];

/// Seed of the microkernel's platform attestation key.
pub const PLATFORM_KEY_SEED: &[u8] = b"perfbench platform";

/// The microkernel's measured boot state.
pub fn boot_state() -> Digest {
    Digest::of(b"perfbench boot stack")
}

/// An attesting microkernel on a 256-frame machine.
pub fn microkernel(tag: &str) -> Microkernel {
    Microkernel::new(
        MachineBuilder::new()
            .name(&format!("{tag}-mk"))
            .frames(256)
            .build(),
        tag,
    )
    .with_attestation(SigningKey::from_seed(PLATFORM_KEY_SEED), boot_state())
}

/// Backend `idx` of [`NAMES`].
pub fn make(idx: usize, tag: &str) -> Box<dyn Substrate> {
    let machine = |suffix: &str| {
        MachineBuilder::new()
            .name(&format!("{tag}-{suffix}"))
            .frames(256)
            .build()
    };
    match idx {
        0 => Box::new(SoftwareSubstrate::new(tag)),
        1 => Box::new(microkernel(tag)),
        2 => Box::new(TrustZone::new(machine("tz"), tag)),
        3 => Box::new(Sgx::new(machine("sgx"), tag)),
        4 => Box::new(Sep::new(machine("sep"), tag)),
        5 => Box::new(Flicker::new(tag)),
        _ => panic!("backend index {idx} out of range"),
    }
}
