//! Workload inputs, generated from the benchmark seed with `clara_corpus`.
//!
//! A [`Plan`] is everything one workload sends: the correct pools the
//! cluster stores are built from, the distinct submissions with their
//! ground truth, pre-rendered request lines, and the request sequence of one
//! measured pass. The program only ever sees the generated submissions.
//!
//! The workloads draw their corpora (pools, attempts, mutants) and the
//! multiset of Zipf draws from one fixed corpus seed; the benchmark seed
//! orders the traffic and places the learns. A few heavy attempts dominate
//! repair time and peak memory, and a few hot submissions dominate the
//! cache-hit path, so inputs whose content changed with the seed would move
//! those figures far more than any host noise; see `README.md`.

use std::collections::HashMap;

use clara_core::frontend;
use clara_corpus::mooc::{derivatives, odd_tuples};
use clara_corpus::{
    all_problems_all_langs, correct_pool, derive_mutants, generate_dataset_for, generate_workload, minic,
    Attempt, AttemptKind, Dataset, DatasetConfig, MutantBucket, MutationConfig, Problem, RequestKind,
    WorkloadConfig,
};
use clara_server::{Request, SplitMix64};

/// What the service must answer for a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Passes the grading suite: `correct`.
    Correct,
    /// Analysable and wrong: `repaired` or `no_repair`, never `correct`.
    Incorrect,
    /// Does not parse or cannot be lowered: `error`.
    Error,
}

/// One distinct submission.
pub struct Sub {
    /// Index into [`Plan::problems`].
    pub problem: usize,
    /// The submission text.
    pub source: String,
    /// Ground truth from the generator and the frontend.
    pub truth: Truth,
}

/// One pre-rendered request line.
pub struct Line {
    /// The NDJSON request.
    pub text: String,
    /// Index into [`Plan::subs`].
    pub sub: usize,
    /// Whether the request asks to learn the submission.
    pub learn: bool,
}

/// The complete input of one workload.
pub struct Plan {
    /// The problems served, one cluster store each.
    pub problems: Vec<Problem>,
    /// The correct solutions each store is built from.
    pub pools: Vec<Vec<String>>,
    /// Distinct submissions.
    pub subs: Vec<Sub>,
    /// Request lines (a submission has one read line and, when learned,
    /// one learn line).
    pub lines: Vec<Line>,
    /// The request sequence of one measured pass (indices into `lines`).
    pub ops: Vec<usize>,
    /// Learn probes sent to a mirror service between requests of a pass:
    /// `(position in ops, line)`, the probe following the request at that
    /// position. They come in rounds of `probe_round` probes, each round on
    /// a fresh mirror, so every learn is timed several times per pass.
    pub probes: Vec<(usize, usize)>,
    /// Probes per round (the number of distinct learn probes).
    pub probe_round: usize,
    /// Each pass starts from a fresh service built from the stores (the
    /// cache has never seen the submissions); otherwise one service is
    /// warmed once and serves every pass.
    pub fresh_per_pass: bool,
    /// The nominal length of one pass in seconds, a constant of the
    /// workload: a run makes `seconds / pass_seconds` passes however fast
    /// the program is, so a slower program gets as many samples as a faster
    /// one.
    pub pass_seconds: f64,
}

/// Seeds per purpose, so one benchmark seed drives independent streams.
fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Ground truth of `source` for `problem`, from the generator's verdict and
/// the frontend (a submission that does not parse or lower is an error).
fn classify(problem: &Problem, source: &str, correct: bool) -> Truth {
    let lowered = frontend(problem.lang).parse(source).ok().and_then(|p| p.lower(problem.entry).ok());
    match (lowered, correct) {
        (None, _) => Truth::Error,
        (Some(_), true) => Truth::Correct,
        (Some(_), false) => Truth::Incorrect,
    }
}

impl Plan {
    fn new(problems: Vec<Problem>, pools: Vec<Vec<String>>, fresh_per_pass: bool, pass_seconds: f64) -> Plan {
        Plan {
            problems,
            pools,
            subs: Vec::new(),
            lines: Vec::new(),
            ops: Vec::new(),
            probes: Vec::new(),
            probe_round: 0,
            fresh_per_pass,
            pass_seconds,
        }
    }

    /// Passes of a run of `seconds`: at least three, so a quartile over the
    /// passes does not rest on a single pass.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_seconds).round() as usize).max(3)
    }

    /// The line for (`problem`, `source`, `learn`), adding the submission
    /// and the line on first sight.
    fn line(
        &mut self,
        index: &mut HashMap<(usize, String, bool), usize>,
        problem: usize,
        source: &str,
        correct: bool,
        learn: bool,
    ) -> usize {
        if let Some(&line) = index.get(&(problem, source.to_owned(), learn)) {
            return line;
        }
        let sub = match self.subs.iter().position(|s| s.problem == problem && s.source == source) {
            Some(sub) => sub,
            None => {
                let truth = classify(&self.problems[problem], source, correct);
                self.subs.push(Sub { problem, source: source.to_owned(), truth });
                self.subs.len() - 1
            }
        };
        let request = Request {
            id: self.lines.len() as u64,
            problem: self.problems[problem].name.to_owned(),
            lang: Some(self.problems[problem].lang.as_str().to_owned()),
            source: source.to_owned(),
            learn: learn.then_some(true),
            trace: None,
        };
        let text = serde_json::to_string(&request).expect("requests serialize");
        self.lines.push(Line { text, sub, learn });
        index.insert((problem, source.to_owned(), learn), self.lines.len() - 1);
        self.lines.len() - 1
    }

    /// Spreads [`PROBE_ROUNDS`] rounds of `learns` (problem, source) evenly
    /// through the pass as mirror learn probes.
    fn spread_probes(
        &mut self,
        index: &mut HashMap<(usize, String, bool), usize>,
        learns: &[(usize, String)],
    ) {
        let total = PROBE_ROUNDS * learns.len();
        for j in 0..total {
            let (problem, source) = &learns[j % learns.len()];
            let line = self.line(index, *problem, source, true, true);
            let at = (j + 1) * self.ops.len() / (total + 1);
            self.probes.push((at, line));
        }
        self.probe_round = learns.len();
    }

    /// `zipf_warm`: MOOC traffic against a warm result cache.
    pub fn zipf_warm(seed: u64) -> Plan {
        let (datasets, held) = multi_problem_datasets(CORPUS_SEED, ZIPF_INCORRECT);
        let problems: Vec<Problem> = datasets.iter().map(|d| d.problem.clone()).collect();
        let pools = datasets.iter().map(|d| d.correct.iter().map(|a| a.source.clone()).collect()).collect();
        let mut plan = Plan::new(problems, pools, false, 0.5);
        let mut stream = generate_workload(
            &datasets,
            WorkloadConfig {
                requests: 10_000,
                seed: derive(CORPUS_SEED, 2),
                zipf_exponent: 1.1,
                pathological_fraction: 0.03,
            },
        );
        shuffle(&mut stream, derive(seed, 2));
        let by_name: HashMap<&str, usize> =
            plan.problems.iter().enumerate().map(|(i, p)| (p.name, i)).collect();
        let mut index = HashMap::new();
        for request in &stream {
            let problem = by_name[request.problem.as_str()];
            let line =
                plan.line(&mut index, problem, &request.source, request.kind == RequestKind::Correct, false);
            plan.ops.push(line);
        }
        plan.spread_probes(&mut index, &held);
        plan
    }

    /// `novel_repair`: every distinct incorrect attempt against a cache that
    /// has never seen it.
    pub fn novel_repair(seed: u64) -> Plan {
        let (datasets, held) = multi_problem_datasets(CORPUS_SEED, 12);
        let problems: Vec<Problem> = datasets.iter().map(|d| d.problem.clone()).collect();
        let pools = datasets.iter().map(|d| d.correct.iter().map(|a| a.source.clone()).collect()).collect();
        let mut plan = Plan::new(problems, pools, true, 4.0);
        let mut index = HashMap::new();
        // Structural duplicates would be cache hits; keep the first of each.
        let mut seen = std::collections::HashSet::new();
        let mut ops = Vec::new();
        for (problem, dataset) in datasets.iter().enumerate() {
            for attempt in &dataset.incorrect {
                let key = frontend(dataset.problem.lang)
                    .parse(&attempt.source)
                    .map_or_else(|_| attempt.source.clone(), |p| p.structural_hash().to_string());
                if seen.insert((problem, key)) {
                    ops.push(plan.line(&mut index, problem, &attempt.source, false, false));
                }
            }
        }
        // Interleave the problems in a seeded order.
        shuffle(&mut ops, derive(seed, 3));
        plan.ops = ops;
        plan.spread_probes(&mut index, &held);
        plan
    }

    /// `learn_mix`: learns of fresh correct solutions beside Zipf reads on
    /// one problem with a large pool. The reads are drawn over correct and
    /// incorrect submissions in the shares of `zipf_warm`'s datasets.
    pub fn learn_mix(seed: u64) -> Plan {
        let reads = ReadMix { correct: STORE_POOL, incorrect: ZIPF_INCORRECT, count: 112 };
        Self::learn_stream(vec![derivatives()], LEARN_MIX_POOL, LEARN_MIX_LEARNS, reads, CORPUS_SEED, seed)
    }

    /// A small corpus over both frontends with reads and learns, for the
    /// exact-count self-test; here the seed drives the corpus too.
    pub fn tiny(seed: u64) -> Plan {
        let problems = vec![derivatives(), odd_tuples(), minic::fibonacci_c()];
        Self::learn_stream(problems, 24, 3, ReadMix { correct: 24, incorrect: 4, count: 120 }, seed, seed)
    }

    /// `reads.count` Zipf reads per problem over the first `reads.correct`
    /// pooled correct solutions and `reads.incorrect` wrong-answer mutants
    /// of each problem (plus pathological submissions), with `learns`
    /// learns of fresh correct solutions per problem spread among them, one
    /// after every 5th–10th read. `corpus_seed` drives the pools, mutants
    /// and Zipf draws, `seed` their order and the learn gaps.
    fn learn_stream(
        problems: Vec<Problem>,
        pool_size: usize,
        learns: usize,
        reads: ReadMix,
        corpus_seed: u64,
        seed: u64,
    ) -> Plan {
        let mut pools = Vec::new();
        let mut fresh = Vec::new();
        let mut datasets = Vec::new();
        for problem in &problems {
            let mut pool = correct_pool(problem, pool_size + learns, derive(corpus_seed, 4));
            fresh.push(pool.split_off(pool_size.min(pool.len())));
            let (derived, _) = derive_mutants(
                problem,
                &MutationConfig {
                    seed: derive(corpus_seed, 5),
                    target_wrong_answer: reads.incorrect,
                    max_attempts: 4_000,
                },
            );
            let attempt = |(id, source): (usize, String), is_correct: bool| Attempt {
                id,
                source,
                is_correct,
                kind: if is_correct { AttemptKind::Variant } else { AttemptKind::Mutant },
                fault_count: usize::from(!is_correct),
            };
            let wrong: Vec<String> = derived
                .into_iter()
                .filter(|m| m.bucket == MutantBucket::WrongAnswer)
                .map(|m| m.source)
                .collect();
            datasets.push(Dataset {
                problem: problem.clone(),
                correct: pool
                    .iter()
                    .take(reads.correct)
                    .cloned()
                    .enumerate()
                    .map(|a| attempt(a, true))
                    .collect(),
                incorrect: wrong.into_iter().enumerate().map(|a| attempt(a, false)).collect(),
                config: DatasetConfig::default(),
            });
            pools.push(pool);
        }
        let mut plan = Plan::new(problems, pools, true, 1.7);
        let mut stream = generate_workload(
            &datasets,
            WorkloadConfig {
                requests: reads.count * plan.problems.len(),
                seed: derive(corpus_seed, 6),
                zipf_exponent: 1.1,
                pathological_fraction: 0.03,
            },
        );
        shuffle(&mut stream, derive(seed, 6));
        let by_name: HashMap<&str, usize> =
            plan.problems.iter().enumerate().map(|(i, p)| (p.name, i)).collect();
        let mut learn_queue: Vec<(usize, String)> = fresh
            .into_iter()
            .enumerate()
            .flat_map(|(p, sources)| sources.into_iter().map(move |s| (p, s)))
            .collect();
        shuffle(&mut learn_queue, derive(seed, 7));
        // Gaps of 5–10 reads, scaled so the learns spread over every read.
        let mut rng = SplitMix64::new(derive(seed, 8));
        let gaps: Vec<u64> = learn_queue.iter().map(|_| 5 + rng.next_below(6)).collect();
        let total: u64 = gaps.iter().sum();
        let mut learn_after: Vec<usize> = gaps
            .iter()
            .scan(0, |sum, g| {
                *sum += g;
                Some((*sum * stream.len() as u64 / total.max(1)) as usize)
            })
            .collect();
        learn_after.reverse();
        let mut index = HashMap::new();
        for (read, request) in stream.iter().enumerate() {
            let problem = by_name[request.problem.as_str()];
            let line =
                plan.line(&mut index, problem, &request.source, request.kind == RequestKind::Correct, false);
            plan.ops.push(line);
            while learn_after.last() == Some(&(read + 1)) {
                learn_after.pop();
                let (target, source) = learn_queue.remove(0);
                let line = plan.line(&mut index, target, &source, true, true);
                plan.ops.push(line);
            }
        }
        plan
    }

    /// A fingerprint of every input the plan sends (to show that two seeds
    /// differ).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.pools.hash(&mut hasher);
        for &op in &self.ops {
            self.lines[op].text.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// The distinct submissions a learn stream reads per problem, and how many
/// reads a pass makes.
struct ReadMix {
    correct: usize,
    incorrect: usize,
    count: usize,
}

/// The seed of every workload corpus.
const CORPUS_SEED: u64 = 0xC1A7A;

/// Base pool of `learn_mix`: correct `derivatives` solutions in the store.
const LEARN_MIX_POOL: usize = 600;

/// Fresh correct solutions learned per `learn_mix` pass.
const LEARN_MIX_LEARNS: usize = 15;

/// Correct solutions per problem in the multi-problem stores.
const STORE_POOL: usize = 120;

/// Incorrect attempts per problem in `zipf_warm`'s datasets.
const ZIPF_INCORRECT: usize = 20;

/// Rounds of learn probes per pass.
const PROBE_ROUNDS: usize = 4;

/// Held-out correct solutions per problem, used as learn probes.
const HELD_OUT: usize = 4;

/// One dataset per problem (9 MiniPy + 3 MiniC) with `incorrect` incorrect
/// attempts; returns the datasets (correct pools trimmed to
/// [`STORE_POOL`]) and the held-out correct solutions.
fn multi_problem_datasets(seed: u64, incorrect: usize) -> (Vec<Dataset>, Vec<(usize, String)>) {
    let config = DatasetConfig {
        correct_count: STORE_POOL + HELD_OUT,
        incorrect_count: incorrect,
        seed: derive(seed, 1),
        ..DatasetConfig::default()
    };
    let mut held = Vec::new();
    let datasets = all_problems_all_langs()
        .iter()
        .enumerate()
        .map(|(i, problem)| {
            let mut dataset = generate_dataset_for(problem, config);
            for attempt in dataset.correct.split_off(STORE_POOL) {
                held.push((i, attempt.source));
            }
            dataset
        })
        .collect();
    (datasets, held)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
