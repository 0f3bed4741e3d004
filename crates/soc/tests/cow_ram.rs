//! Copy-on-write RAM: clones, restores and writes behave exactly like a
//! private flat word array per system, whether a restore re-shares the
//! source's pages or overwrites pages the system owns in place; a warm
//! resume of a resident system allocates nothing; and the event-free run
//! to halt is the `step()` loop, state for state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use xlmc_soc::asm::assemble;
use xlmc_soc::soc::RAM_BYTES;
use xlmc_soc::{workloads, GoldenRun, MpuBit, Soc};

/// The system allocator, counting the allocations of the calling thread
/// (tests run on parallel threads; each only sees its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

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
    /// snapshot the working system shares pages with. Restores interleave
    /// three independent sources with the snapshots, so the working
    /// system alternates between re-shared pages, pages it owns and
    /// overwrites in place, and clean pages it keeps; after each restore it
    /// equals a fresh clone of its source. Clones of the working system
    /// (kept or replacing it) take its pages away from it.
    #[test]
    fn cow_ram_matches_a_flat_model(
        ops in prop::collection::vec((0u8..12, 0usize..8, 0usize..WORDS, 0u32..3), 1..160)
    ) {
        let program = program();
        let source = Soc::new(&program);
        let mut work = source.clone();
        let mut model = flat(&program);
        // (checkpoint or snapshot, its model at the time it was taken):
        // three sources that share no page with each other, then the
        // working system's snapshots.
        let mut saved: Vec<(Soc, Vec<u32>)> = (0..3u32)
            .map(|k| {
                let mut soc = Soc::new(&program);
                let mut m = flat(&program);
                for &w in &HOT[k as usize..] {
                    soc.set_mem_word((w * 4) as u16, 7 + k);
                    m[w] = 7 + k;
                }
                (soc, m)
            })
            .collect();
        let mut kept_clone: Option<Soc> = None;
        for (kind, hot, any, value) in ops {
            match kind {
                // Snapshot the working system.
                0 => saved.push((work.clone(), model.clone())),
                // Restore from a source, a checkpoint or a snapshot.
                1 | 10 => {
                    let (soc, m) = &saved[any % saved.len()];
                    work.restore_from(soc);
                    model.clone_from(m);
                    prop_assert!(work == soc.clone(), "restore differs from a fresh clone");
                    prop_assert!(image(&work) == *m);
                }
                // Keep a clone of the working system alive for a while, or
                // replace the working system by its clone.
                11 => match kept_clone.take() {
                    None => kept_clone = Some(work.clone()),
                    Some(_) => work = work.clone(),
                },
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
        if let Some(clone) = &kept_clone {
            prop_assert!(clone.halted() == work.halted());
        }
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

/// A resident system's warm resume — restore a snapshot, inject, run to
/// halt — allocates nothing, whichever of several snapshots it resumes
/// from, once each has been resumed once.
#[test]
fn warm_resume_allocates_nothing() {
    for workload in [
        workloads::illegal_write(),
        workloads::dma_exfiltration(),
        workloads::trap_escalation(),
    ] {
        let golden = GoldenRun::record(&workload.program, 20_000, 32);
        let target = golden
            .first_violation_cycle()
            .expect("the workload violates");
        let snapshots: Vec<Soc> = [target - 9, target - 4, target - 1]
            .into_iter()
            .map(|te| {
                let mut snap = golden.nearest_checkpoint(te).clone();
                snap.run_until_halt(te + 1);
                snap
            })
            .collect();
        let mut work = golden.nearest_checkpoint(0).clone();
        let bits = [MpuBit::Violation, MpuBit::Enable, MpuBit::PipeValid];
        let resume = |work: &mut Soc, snap: &Soc, bit: MpuBit| {
            work.restore_from(snap);
            work.mpu.toggle_bit(bit);
            work.run_until_halt(golden.cycles + 500);
        };
        for snap in &snapshots {
            for &bit in &bits {
                resume(&mut work, snap, bit);
            }
        }
        for round in 0..3 {
            for (i, snap) in snapshots.iter().enumerate() {
                for &bit in &bits {
                    let n = allocations_in(|| resume(&mut work, snap, bit));
                    assert_eq!(n, 0, "{} round {round} snapshot {i} {bit:?}", workload.name);
                }
            }
        }
        // The resumes ran: the faulty run still reaches a halt.
        assert!(work.halted(), "{}", workload.name);
    }
}

/// `run_until_halt`, which records no events, walks exactly the states of
/// a `step()` loop: cycle by cycle from reset to halt on every goal's
/// workload, with and without a fault injected mid-run.
#[test]
fn event_free_run_matches_the_step_loop() {
    for workload in [
        workloads::illegal_write(),
        workloads::illegal_read(),
        workloads::dma_exfiltration(),
        workloads::trap_escalation(),
        workloads::instruction_skip(),
    ] {
        for fault in [None, Some(MpuBit::Violation), Some(MpuBit::Enable)] {
            let mut stepped = Soc::new(&workload.program);
            let mut run = stepped.clone();
            let mut steps = 0u64;
            while !stepped.halted() && steps < 20_000 {
                if steps == 40 {
                    if let Some(bit) = fault {
                        stepped.mpu.toggle_bit(bit);
                        run.mpu.toggle_bit(bit);
                    }
                }
                stepped.step();
                run.run_until_halt(run.cycle + 1);
                steps += 1;
                assert!(run == stepped, "{} {fault:?} cycle {steps}", workload.name);
            }
            assert!(stepped.halted(), "{} {fault:?}", workload.name);
            // Once halted, both stay put.
            stepped.step();
            run.run_until_halt(run.cycle + 10);
            assert!(run == stepped);
        }
    }
}
