//! Copy-on-write RAM: clones, restores and writes behave exactly like a
//! private flat word array per system.

use proptest::prelude::*;
use xlmc_soc::asm::assemble;
use xlmc_soc::soc::RAM_BYTES;
use xlmc_soc::Soc;

const WORDS: usize = RAM_BYTES as usize / 4;

/// Words on and around page boundaries for any page size that divides the
/// RAM, so random writes keep landing on shared pages.
const HOT: [usize; 8] = [0, 1, 127, 128, 255, 256, 4095, WORDS - 1];

fn program() -> Vec<u32> {
    (0..300u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
}

fn flat(program: &[u32]) -> Vec<u32> {
    let mut m = vec![0u32; WORDS];
    m[..program.len()].copy_from_slice(program);
    m
}

fn image(soc: &Soc) -> Vec<u32> {
    (0..WORDS).map(|w| soc.mem_word((w * 4) as u16)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random writes across clone → restore chains match a flat model for
    /// the working system, and never reach the source, a checkpoint or a
    /// snapshot the working system shares pages with.
    #[test]
    fn cow_ram_matches_a_flat_model(
        ops in prop::collection::vec((0u8..10, 0usize..8, 0usize..WORDS, 0u32..3), 1..160)
    ) {
        let program = program();
        let source = Soc::new(&program);
        let mut work = source.clone();
        let mut model = flat(&program);
        // (checkpoint or snapshot, its model at the time it was taken).
        let mut saved: Vec<(Soc, Vec<u32>)> = vec![(source.clone(), model.clone())];
        for (kind, hot, any, value) in ops {
            match kind {
                // Snapshot the working system.
                0 => saved.push((work.clone(), model.clone())),
                // Restore from a checkpoint or snapshot.
                1 => {
                    let (soc, m) = &saved[any % saved.len()];
                    work.restore_from(soc);
                    model.clone_from(m);
                }
                // Write: values 0..3 repeat, so some writes store what the
                // page already holds and others restore shared content.
                _ => {
                    let word = if kind % 2 == 0 { HOT[hot] } else { any };
                    work.set_mem_word((word * 4) as u16, value);
                    model[word] = value;
                }
            }
            let (soc, m) = &saved[any % saved.len()];
            prop_assert_eq!(work == *soc, model == *m);
        }
        prop_assert!(image(&work) == model, "working system diverged from its model");
        prop_assert!(image(&source) == flat(&program), "source changed");
        for (i, (soc, m)) in saved.iter().enumerate() {
            prop_assert!(image(soc) == *m, "saved state {} changed", i);
        }
    }
}

/// `restore_from` leaves the system equal to a fresh clone of the source,
/// whatever either side wrote before.
#[test]
fn cow_ram_restore_equals_a_fresh_clone() {
    let store_loop = assemble(
        "
        li r1, 0x4000
        li r3, 40
    loop:
        sw r2, 0(r1)
        addi r1, r1, 4
        addi r2, r2, 1
        bne r2, r3, loop
        halt
        ",
    )
    .unwrap();
    let mut soc = Soc::new(&store_loop.words);
    for _ in 0..60 {
        soc.step();
    }
    assert_ne!(soc.mem_word(0x4004), 0, "the loop must have stored by now");
    let checkpoint = soc.clone();
    let mut work = checkpoint.clone();
    for w in (0..WORDS).step_by(97) {
        work.set_mem_word((w * 4) as u16, 0xdead_0000 | w as u32);
    }
    work.core.regs[3] = 7;
    assert!(work != checkpoint);
    work.restore_from(&checkpoint);
    assert!(work == checkpoint.clone());
    assert_eq!(image(&work), image(&checkpoint));
    // And the other way round: restoring the checkpoint-derived system
    // into an unrelated one.
    let mut other = Soc::new(&[1, 2, 3]);
    other.restore_from(&work);
    assert!(other == checkpoint);
}

/// Equality compares contents, not sharing.
#[test]
fn cow_ram_equal_unshared_pages_compare_equal() {
    let program = program();
    // Independently built: no page is shared.
    assert!(Soc::new(&program) == Soc::new(&program));
    // A write and its undo unshare the page but keep the content.
    let a = Soc::new(&program);
    let mut b = a.clone();
    let old = b.mem_word(0x400);
    b.set_mem_word(0x400, old ^ 1);
    assert!(a != b);
    b.set_mem_word(0x400, old);
    assert!(a == b);
    assert!(b == a);
}
