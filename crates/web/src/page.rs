//! Web-page workload (§5.5): a CNN-front-page-like object mix fetched over
//! six parallel persistent MPTCP connections, the way the paper's Android
//! browser does.
//!
//! The paper serves a 2014 snapshot of cnn.com with 107 objects. The exact
//! object sizes are not published, so [`PageModel::cnn_like`] draws a
//! deterministic log-normal mix (median ≈ 8 KB, σ ≈ 1.6, clipped to
//! [200 B, 1.2 MB]) whose total lands in the 3–4 MB a 2014 news front page
//! measured. The distribution is fixed by seed, so every scheduler fetches
//! the *same* page (documented substitution in DESIGN.md).

use mptcp::{Api, Application, ConnId, ReqId};
use simnet::Time;
use testkit::Rng;

/// A static page: an ordered list of object sizes.
#[derive(Debug, Clone)]
pub struct PageModel {
    /// Object payload sizes in bytes.
    pub object_sizes: Vec<u64>,
}

impl PageModel {
    /// The paper's page: 107 objects, log-normal size mix, fixed by `seed`.
    pub fn cnn_like(seed: u64) -> Self {
        Self::lognormal(seed, 107, 8192.0, 1.6, 200, 1_200_000)
    }

    /// A log-normal page with explicit parameters.
    pub fn lognormal(
        seed: u64,
        objects: usize,
        median_bytes: f64,
        sigma: f64,
        min_bytes: u64,
        max_bytes: u64,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mu = median_bytes.ln();
        let object_sizes = (0..objects)
            .map(|_| {
                // Box-Muller standard normal from two uniforms.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let size = (mu + sigma * z).exp();
                (size as u64).clamp(min_bytes, max_bytes)
            })
            .collect();
        PageModel { object_sizes }
    }

    /// Total page weight in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.object_sizes.iter().sum()
    }
}

/// Per-object download record: 24 B, and a population's reports keep one
/// per object of every page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Index in the page's object list.
    pub index: u32,
    /// Payload size.
    pub bytes: u32,
    /// When the GET was issued.
    pub started: Time,
    /// When the response completed.
    pub finished: Time,
}

impl ObjectRecord {
    /// Download completion time for this object.
    pub fn completion_secs(&self) -> f64 {
        self.finished.since(self.started).as_secs_f64()
    }
}

/// A browser fetching a [`PageModel`] over `n_conns` parallel persistent
/// connections: each connection pulls the next unfetched object as soon as
/// its current one completes (HTTP/1.1, no pipelining).
pub struct BrowserApp {
    page: PageModel,
    n_conns: usize,
    /// First connection id this browser owns: it issues on connections
    /// `conn_base..conn_base + n_conns`. Zero for a standalone browser; a
    /// population harness gives each unit's browser its own id range so
    /// many browsers can share one testbed.
    conn_base: usize,
    next_object: usize,
    /// In-flight request → object index.
    pending: Vec<(ReqId, usize, Time)>,
    /// Completed object records.
    pub objects: Vec<ObjectRecord>,
    /// When the last object completed.
    pub page_load_time: Option<Time>,
}

impl BrowserApp {
    /// Fetch `page` over connections `0..n_conns`.
    pub fn new(page: PageModel, n_conns: usize) -> Self {
        Self::with_conn_base(page, n_conns, 0)
    }

    /// Fetch `page` over connections `conn_base..conn_base + n_conns` —
    /// the composition constructor for multi-unit populations.
    pub fn with_conn_base(page: PageModel, n_conns: usize, conn_base: usize) -> Self {
        assert!(n_conns >= 1);
        BrowserApp {
            // One record per object, known up front: a population sweep
            // moves this vector into the unit's report as it is.
            objects: Vec::with_capacity(page.object_sizes.len()),
            page,
            n_conns,
            conn_base,
            next_object: 0,
            pending: Vec::new(),
            page_load_time: None,
        }
    }

    /// True once every object has been fetched.
    pub fn done(&self) -> bool {
        self.page_load_time.is_some()
    }

    /// Completion times (seconds) of all fetched objects — the Fig 20/23
    /// sample set.
    pub fn completion_times_secs(&self) -> Vec<f64> {
        self.objects.iter().map(ObjectRecord::completion_secs).collect()
    }

    fn issue_next(&mut self, now: Time, conn: ConnId, api: &mut Api<'_>) {
        if self.next_object >= self.page.object_sizes.len() {
            return;
        }
        let idx = self.next_object;
        self.next_object += 1;
        let req = api.request(conn, self.page.object_sizes[idx]);
        self.pending.push((req, idx, now));
    }
}

impl Application for BrowserApp {
    fn on_start(&mut self, now: Time, api: &mut Api<'_>) {
        for conn in self.conn_base..self.conn_base + self.n_conns {
            self.issue_next(now, conn, api);
        }
    }

    fn on_response_complete(&mut self, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>) {
        let pos = self
            .pending
            .iter()
            .position(|&(r, _, _)| r == req)
            .expect("completion for unknown request");
        let (_, index, started) = self.pending.swap_remove(pos);
        self.objects.push(ObjectRecord {
            index: u32::try_from(index).expect("a page has under 2^32 objects"),
            bytes: u32::try_from(self.page.object_sizes[index]).expect("an object is under 4 GiB"),
            started,
            finished: now,
        });
        if self.objects.len() == self.page.object_sizes.len() {
            self.page_load_time = Some(now);
        } else {
            self.issue_next(now, conn, api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use mptcp::{ConnConfig, ConnSpec, RecorderConfig, Testbed, TestbedConfig};
    use scenario::Scenario;
    use simnet::PathConfig;

    #[test]
    fn page_model_is_deterministic_and_plausible() {
        let a = PageModel::cnn_like(1);
        let b = PageModel::cnn_like(1);
        assert_eq!(a.object_sizes, b.object_sizes);
        assert_eq!(a.object_sizes.len(), 107);
        let total = a.total_bytes();
        assert!(
            (1_500_000..8_000_000).contains(&total),
            "page weight {total} outside news-page range"
        );
        assert_ne!(PageModel::cnn_like(2).object_sizes, a.object_sizes);
    }

    #[test]
    fn lognormal_respects_clipping() {
        let p = PageModel::lognormal(3, 1000, 8192.0, 2.5, 500, 50_000);
        assert!(p.object_sizes.iter().all(|&s| (500..=50_000).contains(&s)));
    }

    fn browse(kind: SchedulerKind, wifi: f64, lte: f64, seed: u64) -> Testbed<BrowserApp> {
        let conns = (0..6)
            .map(|_| ConnSpec {
                cfg: ConnConfig::default(),
                scheduler: kind,
                custom_scheduler: None,
                subflow_paths: vec![0, 1],
            })
            .collect();
        let cfg = TestbedConfig {
            paths: vec![PathConfig::wifi(wifi), PathConfig::lte(lte)],
            conns,
            seed,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: Default::default(),
        };
        let mut tb = Testbed::new(cfg, BrowserApp::new(PageModel::cnn_like(77), 6));
        tb.run_until(Time::from_secs(300));
        tb
    }

    #[test]
    fn full_page_fetch_completes() {
        let tb = browse(SchedulerKind::Default, 5.0, 5.0, 1);
        assert!(tb.app().done());
        assert_eq!(tb.app().objects.len(), 107);
        // Six connections actually used.
        assert!(tb.world().conn_count() == 6);
    }

    #[test]
    fn object_completions_recorded_per_object() {
        let tb = browse(SchedulerKind::Ecf, 1.0, 10.0, 2);
        let times = tb.app().completion_times_secs();
        assert_eq!(times.len(), 107);
        assert!(times.iter().all(|&t| t > 0.0));
    }
}
