//! The three traffic mixes and the seeded request stream each one sends.
//!
//! A request is a pure function of `(workload, seed, index)`: both load
//! phases and the traced replay draw from the same stream, so the same
//! seed always puts the same requests on the wire in the same order.

/// Shape of the synthetic world the server generates at startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldShape {
    pub users: usize,
    pub items: usize,
    pub density: f64,
}

impl WorldShape {
    pub fn label(&self) -> String {
        format!("{}x{}@{}", self.users, self.items, self.density)
    }
}

/// The large world of the scan-bound workloads.
pub const LARGE: WorldShape = WorldShape {
    users: 10_000,
    items: 500,
    density: 0.1,
};

/// The server's default world, where per-request model work is small.
pub const SMALL: WorldShape = WorldShape {
    users: 2_000,
    items: 300,
    density: 0.05,
};

/// One workload: a world, a traffic mix and the open-loop rate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub world: WorldShape,
    /// Serve with `--wal-path` in a fresh directory (fsync off).
    pub wal: bool,
    /// Offered rate of the open-loop phase, requests per second: a
    /// quarter or less of the mix's closed-loop peak on a 2-vCPU
    /// machine, so a machine running 30% slower does not push the edge
    /// into queueing.
    pub open_rps: f64,
    /// Server set-ups per untraced run; `setup_s` is their median.
    /// More where set-up is cheap.
    pub setup_reps: usize,
    /// Requests replayed by the traced run.
    pub traced_requests: usize,
    /// The route `main_p50_ms` and `main_p95_ms` report.
    pub main: Route,
    mix: Mix,
}

#[derive(Debug, Clone, Copy)]
enum Mix {
    Browse,
    Explain,
    Edge,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "browse",
        world: LARGE,
        wal: false,
        open_rps: 64.0,
        setup_reps: 3,
        traced_requests: 200,
        main: Route::Recommend,
        mix: Mix::Browse,
    },
    Workload {
        name: "explain",
        world: LARGE,
        wal: false,
        open_rps: 60.0,
        setup_reps: 3,
        traced_requests: 200,
        main: Route::Explain,
        mix: Mix::Explain,
    },
    Workload {
        name: "edge",
        world: SMALL,
        wal: true,
        open_rps: 475.0,
        setup_reps: 7,
        traced_requests: 600,
        main: Route::Recommend,
        mix: Mix::Edge,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Route classes latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    Recommend,
    RecommendBatch,
    RecommendExplained,
    Explain,
    Write,
}

impl Route {
    pub const ALL: [Route; 5] = [
        Route::Recommend,
        Route::RecommendBatch,
        Route::RecommendExplained,
        Route::Explain,
        Route::Write,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Recommend => "recommend",
            Route::RecommendBatch => "recommend_batch",
            Route::RecommendExplained => "recommend_explained",
            Route::Explain => "explain",
            Route::Write => "write",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Recommend {
        users: Vec<u32>,
        n: usize,
        explain: bool,
    },
    Explain {
        user: u32,
        item: u32,
        aim: Option<&'static str>,
    },
    Rate {
        user: u32,
        item: u32,
        value: f64,
    },
}

impl Req {
    pub fn route(&self) -> Route {
        match self {
            Req::Recommend { explain: true, .. } => Route::RecommendExplained,
            Req::Recommend { users, .. } if users.len() > 1 => Route::RecommendBatch,
            Req::Recommend { .. } => Route::Recommend,
            Req::Explain { .. } => Route::Explain,
            Req::Rate { .. } => Route::Write,
        }
    }

    pub fn path(&self) -> &'static str {
        match self {
            Req::Recommend { .. } => "/v1/recommend",
            Req::Explain { .. } => "/v1/explain",
            Req::Rate { .. } => "/v1/rate",
        }
    }

    /// The JSON body, as sent on the wire.
    pub fn body(&self) -> String {
        let rate = |&(user, item, value): &(u32, u32, f64)| obj! {"user" => user, "item" => item, "value" => value};
        let value = match self {
            Req::Recommend {
                users,
                n,
                explain: true,
            } => obj! {"users" => users, "n" => n, "explain" => true},
            Req::Recommend { users, n, .. } => obj! {"users" => users, "n" => n},
            Req::Explain {
                user,
                item,
                aim: Some(aim),
            } => obj! {"user" => user, "item" => item, "aim" => aim},
            Req::Explain { user, item, .. } => obj! {"user" => user, "item" => item},
            Req::Rate { user, item, value } => rate(&(*user, *item, *value)),
        };
        serde_json::to_string(&value).expect("JSON encoding cannot fail")
    }

    /// The full HTTP/1.1 request bytes the client writes.
    pub fn wire(&self, host: &str) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST {} HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.path(),
            body.len()
        )
        .into_bytes()
    }

    /// Every `(user, item)` pair this request writes.
    pub fn writes(&self) -> Vec<(u32, u32)> {
        match self {
            Req::Rate { user, item, .. } => vec![(*user, *item)],
            _ => Vec::new(),
        }
    }
}

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Users that receive a share of the traffic, so reads follow writes to
/// the same user (the read-your-writes check needs that overlap).
const HOT_USERS: usize = 64;
/// Items writes go to: few enough that rated items are often ones the
/// model would otherwise recommend.
const HOT_ITEMS: usize = 40;
/// Aims an explain request may name. `effectiveness` is left out: the
/// quality book maps it to `similar_to_rated`, which needs item-kNN
/// evidence the user-kNN edge never has, so every such request is a 422.
const AIMS: [&str; 6] = [
    "trust",
    "transparency",
    "persuasiveness",
    "efficiency",
    "satisfaction",
    "scrutability",
];

/// A user id: 30% of draws go to a fixed hot set.
pub fn draw_user(rng: &mut Rng, world: &WorldShape) -> u32 {
    if rng.unit() < 0.3 {
        (rng.below(HOT_USERS) * (world.users / HOT_USERS)) as u32
    } else {
        rng.below(world.users) as u32
    }
}

fn rate(rng: &mut Rng, world: &WorldShape) -> (u32, u32, f64) {
    let stride = world.items / HOT_ITEMS;
    let item = (rng.below(HOT_ITEMS) * stride) as u32;
    (draw_user(rng, world), item, (1 + rng.below(5)) as f64)
}

fn single(rng: &mut Rng, world: &WorldShape) -> Req {
    Req::Recommend {
        users: vec![draw_user(rng, world)],
        n: 10,
        explain: false,
    }
}

fn explained(rng: &mut Rng, world: &WorldShape) -> Req {
    Req::Recommend {
        users: vec![draw_user(rng, world)],
        n: 5,
        explain: true,
    }
}

fn explain(rng: &mut Rng, pairs: &[(u32, u32)], aim: Option<&'static str>) -> Req {
    let (user, item) = pairs[rng.below(pairs.len())];
    Req::Explain { user, item, aim }
}

fn rate_one(rng: &mut Rng, world: &WorldShape) -> Req {
    let (user, item, value) = rate(rng, world);
    Req::Rate { user, item, value }
}

/// Request kinds a mix is made of.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Single,
    Batch,
    Explain,
    AimExplain,
    Explained,
    Rate,
}

use Kind::*;

impl Mix {
    /// One block of the mix. Every block of the stream holds exactly
    /// these kinds in a seeded order, so each seed sends the same shares
    /// and a quantile never moves because a seed drew more of one kind.
    fn block(self) -> &'static [Kind] {
        match self {
            Mix::Browse => &[
                Single, Single, Single, Single, Single, Single, Single, Single, Single, Single,
                Single, Single, Single, Single, Single, Single, Single, Single, Single, Batch,
            ],
            Mix::Explain => &[
                Explain, Explain, Explain, Explain, Explain, Explain, Explain, Explain, Explain,
                AimExplain, AimExplain, Explained, Explained, Explained, Explained, Explained,
                Explained, Explained, Explained, Explained,
            ],
            Mix::Edge => &[
                Single, Single, Single, Single, Single, Explain, Explain, Explained, Rate, Rate,
            ],
        }
    }
}

impl Workload {
    /// Request `index` of the stream for `seed`; explain requests draw
    /// their `(user, item)` from `pairs`.
    pub fn request(&self, seed: u64, index: usize, pairs: &[(u32, u32)]) -> Req {
        let block = self.mix.block();
        let (number, slot) = (index / block.len(), index % block.len());
        // Seeded Fisher-Yates over the block's slots.
        let mut order: Vec<usize> = (0..block.len()).collect();
        let mut shuffle = Rng::new(seed ^ (number as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        for k in (1..order.len()).rev() {
            order.swap(k, shuffle.below(k + 1));
        }
        let mut rng = Rng::new(seed ^ (index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        let world = &self.world;
        match block[order[slot]] {
            Single => single(&mut rng, world),
            Batch => Req::Recommend {
                users: (0..4).map(|_| draw_user(&mut rng, world)).collect(),
                n: 10,
                explain: false,
            },
            Explain => explain(&mut rng, pairs, None),
            AimExplain => {
                let aim = AIMS[rng.below(AIMS.len())];
                explain(&mut rng, pairs, Some(aim))
            }
            Explained => explained(&mut rng, world),
            Rate => rate_one(&mut rng, world),
        }
    }
}

/// The request stream of one run: a workload, a seed, and the pairs
/// its explain requests draw from (pairs the model can answer, so no
/// request of the stream is a cold-pair 422).
#[derive(Debug, Clone)]
pub struct Stream {
    pub workload: Workload,
    pub seed: u64,
    pub explainable: Vec<(u32, u32)>,
}

impl Stream {
    pub fn request(&self, index: usize) -> Req {
        self.workload.request(self.seed, index, &self.explainable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAIRS: [(u32, u32); 3] = [(1, 2), (3, 4), (5, 6)];

    #[test]
    fn same_seed_gives_the_same_stream() {
        for w in WORKLOADS {
            let a: Vec<Req> = (0..500).map(|k| w.request(7, k, &PAIRS)).collect();
            let b: Vec<Req> = (0..500).map(|k| w.request(7, k, &PAIRS)).collect();
            assert_eq!(a, b, "{}", w.name);
            let c: Vec<Req> = (0..500).map(|k| w.request(8, k, &PAIRS)).collect();
            assert_ne!(a, c, "{}: another seed must change the stream", w.name);
        }
    }

    #[test]
    fn every_block_holds_the_exact_mix() {
        for w in WORKLOADS {
            let len = w.mix.block().len();
            let count = |seed: u64, block: usize| {
                let mut c = std::collections::BTreeMap::new();
                for k in block * len..(block + 1) * len {
                    *c.entry(w.request(seed, k, &PAIRS).route()).or_insert(0) += 1;
                }
                c
            };
            assert_eq!(count(1, 0), count(2, 7), "{}", w.name);
        }
    }

    #[test]
    fn mixes_hit_their_routes_and_stay_in_the_world() {
        for w in WORKLOADS {
            let mut seen = std::collections::BTreeSet::new();
            for k in 0..2000 {
                let req = w.request(1, k, &PAIRS);
                seen.insert(req.route());
                match &req {
                    Req::Recommend { users, .. } => {
                        assert!(users.iter().all(|&u| (u as usize) < w.world.users))
                    }
                    Req::Explain { user, item, .. } => {
                        assert!((*user as usize) < w.world.users);
                        assert!((*item as usize) < w.world.items);
                    }
                    _ => {
                        for (u, i) in req.writes() {
                            assert!((u as usize) < w.world.users && (i as usize) < w.world.items);
                        }
                    }
                }
            }
            let expected: &[Route] = match w.name {
                "browse" => &[Route::Recommend, Route::RecommendBatch],
                "explain" => &[Route::RecommendExplained, Route::Explain],
                _ => &[
                    Route::Recommend,
                    Route::RecommendExplained,
                    Route::Explain,
                    Route::Write,
                ],
            };
            assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected, "{}", w.name);
        }
    }
}
