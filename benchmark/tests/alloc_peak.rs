//! The heap peak of one repeat must not carry over into the next. This is
//! the only test in its binary, so no other thread allocates meanwhile.

use benchmark::alloc;

#[test]
fn peak_resets_between_repeats() {
    const BIG: usize = 64 << 20;
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let buf = std::hint::black_box(vec![1u8; BIG]);
    assert!(alloc::live_bytes() >= base + BIG as u64);
    drop(buf);
    let first = alloc::peak_bytes() - base;
    assert!(first >= BIG as u64, "peak {first} missed the 64 MiB buffer");

    alloc::reset_peak();
    let small = std::hint::black_box(vec![1u8; 1 << 20]);
    let second = alloc::peak_bytes() - base;
    drop(small);
    assert!(
        (1 << 20..BIG as u64 / 2).contains(&second),
        "peak {second} after reset still includes the previous repeat"
    );

    let before = alloc::allocations();
    std::hint::black_box(Box::new(7u64));
    assert!(alloc::allocations() > before);
}
