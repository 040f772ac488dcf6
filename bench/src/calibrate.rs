//! A fixed piece of work that uses none of the repository's code, timed once
//! a round: how fast the machine was while the run measured.

use crate::clock::cpu_seconds;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The kernel's data: a random cycle through 8 MiB, for dependent loads that
/// miss the caches.
pub struct Kernel {
    next: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    pub fn new() -> Self {
        // Sattolo's algorithm: one cycle through every slot.
        let n = 1usize << 21;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Kernel { next }
    }

    /// Runs the kernel once and returns the CPU seconds it used: dependent loads, then
    /// what a database spends its time on — ordered-map inserts and
    /// lookups, short strings built, compared and dropped — then arithmetic.
    pub fn run(&self) -> f64 {
        let started = cpu_seconds();
        let mut p = 0u32;
        for _ in 0..100_000 {
            p = self.next[p as usize];
        }
        black_box(p);
        let mut x = 88_172_645_463_325_252u64;
        let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for _ in 0..12_000 {
            let k = xorshift(&mut x);
            map.entry(format!("k{:05}", k % 20_000))
                .or_default()
                .push(k);
        }
        let mut hits = 0u64;
        for _ in 0..12_000 {
            let k = xorshift(&mut x);
            hits += map
                .get(&format!("k{:05}", k % 20_000))
                .map_or(0, |v| v.len() as u64);
        }
        let mut keys: Vec<String> = map.keys().rev().cloned().collect();
        keys.sort();
        black_box((hits, keys.len()));
        let mut s = 0u64;
        for i in 0..1_000_000u64 {
            s = s.wrapping_add((i * i) % 7).rotate_left(3);
        }
        black_box(s);
        cpu_seconds() - started
    }
}
