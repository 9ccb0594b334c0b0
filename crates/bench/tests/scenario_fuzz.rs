//! Decoder robustness: the scenario document is a trust boundary
//! (`um-sweep --scenario`, `um-serve` submissions), so any JSON value
//! must decode to `Ok` or `Err`, never a panic.
//!
//! The trees are built from the schema's own vocabulary, so they reach
//! deep into the decoder instead of failing at the first key: every key
//! and string of the registry documents, the fault and workload tags the
//! registry does not use, and junk keys and values of every JSON type.
//! Two more properties scramble registry documents (values replaced at
//! any depth, keys kept) and mutate them in one place.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use um_bench::benchjson::Json;
use um_bench::scenario::{registry, Scenario};

/// Schema spellings the registry documents never use.
const EXTRA: &[&str] = &[
    "core-fail-stop",
    "core-fail-slow",
    "link-fault",
    "fail-slow-every-village",
    "random-fail-stops",
    "random-link-faults",
    "server",
    "village",
    "at_cycles",
    "cores",
    "from_cycles",
    "until_cycles",
    "slowdown",
    "link",
    "servers",
    "villages",
    "count",
    "horizon_cycles",
    "links",
    "mean_duration_cycles",
    "train-mix",
    "synthetic",
    "icn",
    "mesh",
    "fat-tree",
    "leaf-spine",
    "hedge_delay_us",
    "max_in_flight",
    "nodes",
    "mean",
];

fn collect(v: &Json, words: &mut BTreeSet<String>) {
    match v {
        Json::Str(s) => {
            words.insert(s.clone());
        }
        Json::Arr(items) => items.iter().for_each(|i| collect(i, words)),
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                words.insert(k.clone());
                collect(v, words);
            }
        }
        Json::Null | Json::Bool(_) | Json::Num(_) => {}
    }
}

/// Every key and string of the registry documents, plus [`EXTRA`] and
/// a few junk words.
fn vocabulary() -> Vec<String> {
    let mut words = BTreeSet::new();
    for s in registry::all() {
        collect(&s.to_json(), &mut words);
    }
    words.extend(EXTRA.iter().map(|w| w.to_string()));
    words.extend(["", "zz", "type ", "Type"].map(str::to_string));
    words.into_iter().collect()
}

/// Edge-case numbers: negative, fractional, past 32 bits, past 2^53.
const NUMBERS: [f64; 14] = [
    0.0,
    1.0,
    2.0,
    -1.0,
    0.5,
    1.5,
    3.0,
    8.0,
    512.0,
    1e9,
    4_294_967_296.0,
    9_007_199_254_740_992.0,
    1e300,
    -1e300,
];

/// A random scenario-shaped document.
enum Docs {
    /// An arbitrary tree.
    Tree,
    /// A registry document with a few values, at any depth, replaced
    /// by arbitrary trees: the keys stay right, so the values reach
    /// every field's decoder.
    Scrambled,
    /// A registry document with one value replaced, one key removed or
    /// one key repeated.
    Mutated,
}

struct Gen<'a, R> {
    rng: &'a mut R,
    words: &'a [String],
}

impl<R: Rng> Gen<'_, R> {
    fn word(&mut self) -> String {
        self.words[self.rng.gen_range(0..self.words.len())].clone()
    }

    fn number(&mut self) -> f64 {
        if self.rng.gen_bool(0.7) {
            NUMBERS[self.rng.gen_range(0..NUMBERS.len())]
        } else {
            let x = f64::from_bits(self.rng.gen::<u64>());
            if x.is_finite() {
                x
            } else {
                0.0
            }
        }
    }

    fn tree(&mut self, depth: u32) -> Json {
        match self.rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.rng.gen_bool(0.5)),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.word()),
            4 => Json::Arr(
                (0..self.rng.gen_range(0..5))
                    .map(|_| self.tree(depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..self.rng.gen_range(0..9))
                    .map(|_| (self.word(), self.tree(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Replaces each value under `v` by an arbitrary tree with
    /// probability 1/16.
    fn scramble(&mut self, v: &mut Json) {
        let children: Vec<&mut Json> = match v {
            Json::Obj(pairs) => pairs.iter_mut().map(|(_, c)| c).collect(),
            Json::Arr(items) => items.iter_mut().collect(),
            _ => return,
        };
        for c in children {
            if self.rng.gen_range(0..16) == 0 {
                *c = self.tree(3);
            } else {
                self.scramble(c);
            }
        }
    }

    /// Walks down from `v`, picking children at random, and edits the
    /// value reached.
    fn mutate(&mut self, v: &mut Json) {
        let stop = self.rng.gen_bool(0.25);
        match v {
            Json::Obj(pairs) if !pairs.is_empty() => {
                let i = self.rng.gen_range(0..pairs.len());
                if !stop {
                    return self.mutate(&mut pairs[i].1);
                }
                match self.rng.gen_range(0..3) {
                    0 => pairs[i].1 = self.tree(4),
                    1 => {
                        pairs.remove(i);
                    }
                    _ => pairs.push((pairs[i].0.clone(), self.tree(4))),
                }
            }
            Json::Arr(items) if !items.is_empty() && !stop => {
                let i = self.rng.gen_range(0..items.len());
                self.mutate(&mut items[i]);
            }
            _ => *v = self.tree(4),
        }
    }
}

impl Strategy for Docs {
    type Value = Json;

    fn sample(&self, rng: &mut SmallRng) -> Json {
        let words = vocabulary();
        let mut g = Gen { rng, words: &words };
        if let Docs::Tree = self {
            return g.tree(6);
        }
        let registry = registry::all();
        let mut doc = registry[g.rng.gen_range(0..registry.len())].to_json();
        match self {
            Docs::Scrambled => g.scramble(&mut doc),
            _ => g.mutate(&mut doc),
        }
        doc
    }
}

fn check(doc: &Json) -> Result<(), TestCaseError> {
    if let Ok(s) = Scenario::from_json(doc) {
        // Whatever decodes re-encodes canonically.
        let back = Scenario::from_json_text(&s.to_json_text())
            .map_err(|e| TestCaseError::fail(format!("re-decode failed: {e}")))?;
        prop_assert_eq!(back, s);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_trees_decode_without_panicking(doc in Docs::Tree) {
        check(&doc)?;
    }

    #[test]
    fn scrambled_registry_documents_decode_without_panicking(doc in Docs::Scrambled) {
        check(&doc)?;
    }

    #[test]
    fn mutated_registry_documents_decode_without_panicking(doc in Docs::Mutated) {
        check(&doc)?;
    }
}
