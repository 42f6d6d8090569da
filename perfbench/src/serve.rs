//! `serve-frames`: an in-process `taor-serve` answering two robots.
//!
//! The service runs the Siamese pipeline over the flat 82-view gallery
//! with one recognition worker; the process pool is one thread wide.
//! Each simulated robot holds one kept-alive connection and sends
//! frames on a fixed open-loop schedule: a frame is 3–5 crops drawn
//! from a seeded pool of NYU-style crops, written as pipelined requests
//! at the frame's due time. Latencies run from the due time, so a late
//! generator or a stalled server shows in them; the generator's own
//! lateness is reported beside them.
//!
//! The generator honours `Connection: close`: when the server rotates a
//! connection (after `max_requests_per_conn` requests) any request of
//! the frame that was not answered is sent again on a new connection.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use taor_core::prelude::*;
use taor_core::wire::{decode_crop, encode_rgb8};
use taor_data::{nyu_set_subsampled, shapenet_set1, ObjectClass};
use taor_imgproc::image::RgbImage;
use taor_nn::{NetConfig, NormXCorrNet, Tensor};
use taor_serve::{RecognizerService, Server, ServerConfig, ServiceConfig};

use crate::trace::{SpanId, Tracer};
use crate::{median, percentile, secs, timed_median, Outcome, RunOpts};

/// Simulated robots, one kept-alive connection each.
pub const ROBOTS: usize = 2;
/// Time between two frames of one robot; the robots are offset by half
/// of it.
pub const FRAME_PERIOD: Duration = Duration::from_millis(72);
/// Crops in one frame: a segmented frame yields one crop per object, and
/// `taor_data::patrol_frames`, the repository's model of a robot's
/// frames, renders 3–5 objects per room frame, each count equally often.
/// A frame's size is drawn uniformly from this range (mean 4 crops), so
/// with the period above the two robots offer ~110 crops/s.
pub const FRAME_CROPS: RangeInclusive<usize> = 3..=5;
/// Largest batch the traced probes time (`nn.tower_ms.b{1..6}`,
/// `serve.recognize_batch_ms.b{1..6}`): one past the largest frame.
pub const MAX_BATCH: usize = 6;
/// Set-up is short (tens of milliseconds), so it is repeated more often.
const SETUPS: usize = 25;

/// The service and server exactly as the workload deploys them.
pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig { seed, index: AnnIndexMode::Flat, ..ServiceConfig::default() }
}

pub fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, ..ServerConfig::default() }
}

/// The crop pool: NYU-style crops on the wire, `per_class` per class.
pub fn crop_pool(seed: u64, per_class: usize) -> Vec<Vec<u8>> {
    nyu_set_subsampled(seed ^ 0x5E4F_E000, per_class)
        .images
        .iter()
        .map(|li| encode_rgb8(&li.image))
        .collect()
}

/// One robot's frames: crop indices into the pool.
pub fn frames(seed: u64, robot: usize, count: usize, pool: usize) -> Vec<Vec<usize>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0xF4A3_0000 + robot as u64));
    (0..count)
        .map(|_| {
            let size = rng.gen_range(FRAME_CROPS);
            (0..size).map(|_| rng.gen_range(0..pool)).collect()
        })
        .collect()
}

/// Class and ranking the service must answer for a crop, computed
/// offline: `image_to_tensor` → `tower_embed` → `predict_similar_features`
/// over the 82-view gallery, per-class minimum distance, stable sort.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub class: String,
    pub ranking: Vec<String>,
}

/// The benchmark's own copy of the service's network and gallery.
pub struct Offline {
    net: NormXCorrNet,
    gallery: Tensor,
    classes: Vec<ObjectClass>,
}

impl Offline {
    pub fn new(cfg: &ServiceConfig) -> Self {
        let net_cfg = NetConfig { seed: cfg.seed, ..cfg.net.clone() };
        let net = NormXCorrNet::new(net_cfg).expect("service network config is valid");
        let catalog = shapenet_set1(cfg.seed);
        let classes = catalog.images.iter().map(|li| li.class).collect();
        let tensors: Vec<Tensor> =
            catalog.images.iter().map(|li| image_to_tensor(&li.image, &net.config)).collect();
        let gallery = embed(&net, &tensors.iter().collect::<Vec<_>>());
        Offline { net, gallery, classes }
    }

    pub fn expected(&self, img: &RgbImage) -> Expected {
        let q = embed(&self.net, &[&image_to_tensor(img, &self.net.config)]);
        let probs = self.head(&q);
        let mut best = [f64::INFINITY; ObjectClass::COUNT];
        for (class, p) in self.classes.iter().zip(&probs) {
            let d = 1.0 - f64::from(*p);
            if d < best[class.index()] {
                best[class.index()] = d;
            }
        }
        let mut order: Vec<usize> = (0..ObjectClass::COUNT).collect();
        order.sort_by(|&a, &b| best[a].total_cmp(&best[b]));
        let ranking: Vec<String> = order
            .iter()
            .filter_map(|&i| ObjectClass::from_index(i))
            .map(|c| c.name().to_string())
            .collect();
        Expected { class: ranking[0].clone(), ranking }
    }

    fn head(&self, query: &Tensor) -> Vec<f32> {
        let rows: Vec<&Tensor> = std::iter::repeat_n(query, self.classes.len()).collect();
        let stacked = Tensor::stack_batch(&rows).expect("equal-shape rows stack");
        self.net.predict_similar_features(&stacked, &self.gallery).expect("head shapes agree")
    }
}

fn embed(net: &NormXCorrNet, views: &[&Tensor]) -> Tensor {
    let batch = Tensor::stack_batch(views).expect("equal-shape views stack");
    net.tower_embed(&batch).expect("tower accepts the configured input size")
}

/// One HTTP answer off the wire.
#[derive(Debug)]
pub struct Answer {
    pub status: u16,
    pub close: bool,
    pub body: Vec<u8>,
}

/// A kept-alive client connection that frames answers by
/// `Content-Length` and notices `Connection: close`.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    /// Write one pipelined POST per crop in a single write.
    pub fn send(&mut self, crops: &[&[u8]]) -> std::io::Result<()> {
        let mut raw = Vec::new();
        for crop in crops {
            raw.extend_from_slice(
                format!(
                    "POST /recognize HTTP/1.1\r\nHost: taor\r\nContent-Length: {}\r\n\r\n",
                    crop.len()
                )
                .as_bytes(),
            );
            raw.extend_from_slice(crop);
        }
        self.stream.write_all(&raw)
    }

    pub fn read_answer(&mut self) -> std::io::Result<Answer> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end + 4);
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        while self.buf.len() < len {
            self.fill()?;
        }
        let body = self.buf.drain(..len).collect();
        Ok(Answer { status, close, body })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One answered request as the robot saw it.
pub struct Reply {
    pub crop: usize,
    pub latency_ms: f64,
    pub answer: Answer,
}

/// Everything one robot recorded.
#[derive(Default)]
pub struct RobotLog {
    pub replies: Vec<Reply>,
    /// Crops that got no answer at all (after retries).
    pub lost: Vec<usize>,
    pub frame_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub reconnects: u64,
    pub queue_depth_max: usize,
}

/// Drive one robot's frames against the server; never panics on I/O.
pub fn robot(
    robot: usize,
    server: &Server,
    pool: &[Vec<u8>],
    frames: &[Vec<usize>],
    t0: Instant,
    tr: &Tracer,
) -> RobotLog {
    let addr = server.local_addr();
    let mut log = RobotLog::default();
    // Frame spans (send to last answer) with their request spans; they
    // are recorded under the robot's load span once it has ended.
    let mut frame_spans = Vec::new();
    let mut conn = Conn::open(addr).ok();
    let offset = FRAME_PERIOD.mul_f64(robot as f64 / ROBOTS as f64);
    let load_start = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        let due = t0 + offset + FRAME_PERIOD * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        log.lateness_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let req = (robot as u64) << 32 | i as u64;
        let mut pending: Vec<usize> = frame.clone();
        let mut attempts = 0;
        let mut prev = sent;
        let mut spans = Vec::new();
        while !pending.is_empty() && attempts < 4 {
            attempts += 1;
            let c = match conn.as_mut() {
                Some(c) => c,
                None => match Conn::open(addr) {
                    Ok(c) => conn.insert(c),
                    Err(_) => continue,
                },
            };
            let crops: Vec<&[u8]> = pending.iter().map(|&k| pool[k].as_slice()).collect();
            let mut reset = c.send(&crops).is_err();
            log.queue_depth_max = log.queue_depth_max.max(server.queue_depth());
            while !reset && !pending.is_empty() {
                match c.read_answer() {
                    Ok(answer) => {
                        let now = Instant::now();
                        spans.push((prev.max(sent), now));
                        prev = now;
                        let close = answer.close;
                        let crop = pending.remove(0);
                        let latency_ms = now.duration_since(due).as_secs_f64() * 1e3;
                        log.replies.push(Reply { crop, latency_ms, answer });
                        log.queue_depth_max = log.queue_depth_max.max(server.queue_depth());
                        reset = close;
                    }
                    Err(_) => reset = true,
                }
            }
            if reset {
                // The server ended the connection: whatever it did not
                // answer goes out again on a fresh one.
                conn = None;
                log.reconnects += 1;
            }
        }
        log.lost.extend(pending);
        let done = Instant::now();
        log.frame_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
        if tr.enabled() {
            frame_spans.push((req, sent, done, spans));
        }
    }
    if tr.enabled() {
        let load = tr.record("gen.load", SpanId::NONE, robot as u64, load_start, Instant::now());
        for (req, sent, done, spans) in frame_spans {
            let frame = tr.record("gen.frame", load, req, sent, done);
            for (s, e) in spans {
                tr.record("serve.request", frame, req, s, e);
            }
        }
    }
    log
}

/// Parse the fields the checks read from a response body.
fn parse_body(body: &[u8]) -> Option<(String, Vec<String>, bool, String)> {
    use serde_json::Value;
    let Value::Map(fields) = serde_json::from_str::<Value>(std::str::from_utf8(body).ok()?).ok()?
    else {
        return None;
    };
    let get = |k: &str| fields.iter().find(|(name, _)| name == k).map(|(_, v)| v);
    let class = match get("class")? {
        Value::Str(s) => s.clone(),
        _ => return None,
    };
    let ranking = match get("ranking")? {
        Value::Seq(items) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let degraded = match get("degraded")? {
        Value::Bool(b) => *b,
        _ => return None,
    };
    let pipeline = match get("pipeline")? {
        Value::Str(s) => s.clone(),
        _ => return None,
    };
    Some((class, ranking, degraded, pipeline))
}

/// Check one reply: a 200, non-degraded Siamese answer whose class and
/// ranking equal the offline computation, with the same body as every
/// other reply for the same crop bytes.
pub fn check_reply(
    reply: &Reply,
    expected: &[Expected],
    bodies: &mut BTreeMap<usize, Vec<u8>>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if reply.answer.status != 200 {
        problems.push(format!("status {}", reply.answer.status));
        return problems;
    }
    match parse_body(&reply.answer.body) {
        None => problems.push("unparseable body".to_string()),
        Some((class, ranking, degraded, pipeline)) => {
            if degraded || pipeline != "siamese" {
                problems.push(format!("degraded answer from {pipeline}"));
            }
            let want = &expected[reply.crop];
            if class != want.class || ranking != want.ranking {
                problems.push(format!("answered {class} {ranking:?}, expected {want:?}"));
            }
        }
    }
    match bodies.get(&reply.crop) {
        Some(first) if *first != reply.answer.body => {
            problems.push(format!("crop {} answered with two different bodies", reply.crop))
        }
        Some(_) => {}
        None => {
            bodies.insert(reply.crop, reply.answer.body.clone());
        }
    }
    problems
}

pub fn run(opts: &RunOpts, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let svc_cfg = service_config(opts.seed);
    let pool = crop_pool(opts.seed, if opts.small { 1 } else { 6 });

    // Time-to-ready, several times; the last server stays up.
    let mut setups = Vec::new();
    let mut up = None;
    for k in 0..SETUPS {
        if let Some((server, _)) = up.take() {
            Server::shutdown(server);
        }
        let t = Instant::now();
        let ready = tr.span("bench.setup", SpanId::NONE, k as u64, |root| {
            let service = tr.span("serve.service_new", root, 0, |_| {
                RecognizerService::new(svc_cfg.clone()).expect("service builds")
            });
            let service = Arc::new(service);
            let server = tr.span("serve.spawn", root, 0, |_| {
                Server::spawn(Arc::clone(&service), server_config()).expect("server binds")
            });
            (server, service)
        });
        setups.push(secs(t));
        up = Some(ready);
    }
    let (server, service) = up.expect("at least one set-up ran");

    // The answers every crop must get, computed apart from the service.
    let (offline, expected) = tr.span("bench.offline", SpanId::NONE, 0, |_| {
        let offline = Offline::new(&svc_cfg);
        let expected: Vec<Expected> = pool
            .iter()
            .map(|bytes| offline.expected(&decode_crop(bytes).expect("pool crops decode").0))
            .collect();
        (offline, expected)
    });

    let period_ms = FRAME_PERIOD.as_millis() as u64;
    let per_robot = ((opts.seconds * 1e3).round() as u64 / period_ms).max(1) as usize;
    let schedules: Vec<Vec<Vec<usize>>> =
        (0..ROBOTS).map(|r| frames(opts.seed, r, per_robot, pool.len())).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let logs: Vec<RobotLog> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(r, frames)| {
                let (server, pool) = (&server, &pool);
                s.spawn(move || robot(r, server, pool, frames, t0, tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("robot thread panicked")).collect()
    });
    tr.span("serve.shutdown", SpanId::NONE, 0, |_| server.shutdown());

    let mut bodies = BTreeMap::new();
    tr.span("bench.check", SpanId::NONE, 0, |_| {
        for log in &logs {
            for reply in &log.replies {
                out.op("request", check_reply(reply, &expected, &mut bodies));
            }
            for crop in &log.lost {
                out.op("request", vec![format!("crop {crop} never answered")]);
            }
        }
    });

    let requests: Vec<f64> =
        logs.iter().flat_map(|l| l.replies.iter().map(|r| r.latency_ms)).collect();
    let frames_ms: Vec<f64> = logs.iter().flat_map(|l| l.frame_ms.iter().copied()).collect();
    out.e2e("setup_s", median(&setups), "s");
    // The result a robot waits for is a frame's last answer.
    out.e2e("result_s", median(&frames_ms) / 1e3, "s");
    out.detail("request_p50_ms", median(&requests), "ms");
    out.detail("frame_p50_ms", median(&frames_ms), "ms");
    out.detail("frame_p99_ms", percentile(&frames_ms, 99.0), "ms");

    if tr.enabled() {
        let lateness: Vec<f64> = logs.iter().flat_map(|l| l.lateness_ms.iter().copied()).collect();
        out.detail("gen.lateness_ms.p50", median(&lateness), "ms");
        out.detail("gen.lateness_ms.max", lateness.iter().copied().fold(0.0, f64::max), "ms");
        out.detail(
            "serve.reconnects",
            logs.iter().map(|l| l.reconnects).sum::<u64>() as f64,
            "count",
        );
        let depth = logs.iter().map(|l| l.queue_depth_max).max().unwrap_or(0);
        out.detail("serve.queue_depth_max", depth as f64, "count");
        tr.span("bench.probe", SpanId::NONE, 0, |root| {
            layer_probes(&service, &offline, &pool, &logs, tr, root, &mut out)
        });
    }
    out
}

/// Direct calls into each layer the service path crosses (traced runs
/// only): wire decode, tower forward per batch size, head, whole
/// recognition per batch size, and the transport share of latency.
fn layer_probes(
    service: &RecognizerService,
    offline: &Offline,
    pool: &[Vec<u8>],
    logs: &[RobotLog],
    tr: &Tracer,
    root: SpanId,
    out: &mut Outcome,
) {
    const REPS: usize = 15;
    let decoded: Vec<_> = pool.iter().map(|b| decode_crop(b).expect("pool crops decode")).collect();
    let decode_us: Vec<f64> = pool
        .iter()
        .map(|b| {
            tr.span("core.wire_decode", root, 0, |_| timed_median(5, || decode_crop(b)).0 * 1e6)
        })
        .collect();
    out.detail("core.wire_decode_us", median(&decode_us), "us");

    // The 82-view catalogue `RecognizerService::new` renders and embeds
    // at set-up: rendering, then image conversion and tower forward.
    let seed = service.config().seed;
    let (render_s, catalog) =
        tr.span("data.render", root, 0, |_| timed_median(5, || shapenet_set1(seed)));
    out.detail("data.render_s", render_s, "s");
    let (embed_s, _) = tr.span("nn.gallery_embed", root, 0, |_| {
        timed_median(5, || {
            let views: Vec<Tensor> = catalog
                .images
                .iter()
                .map(|li| image_to_tensor(&li.image, &offline.net.config))
                .collect();
            embed(&offline.net, &views.iter().collect::<Vec<_>>())
        })
    });
    out.detail("nn.gallery_embed_s", embed_s, "s");

    let tensors: Vec<Tensor> =
        decoded.iter().map(|(img, _)| image_to_tensor(img, &offline.net.config)).collect();
    for b in 1..=MAX_BATCH {
        let views: Vec<&Tensor> = tensors.iter().cycle().take(b).collect();
        let (tower, _) = tr.span("nn.tower", root, b as u64, |_| {
            timed_median(REPS, || embed(&offline.net, &views))
        });
        out.detail(&format!("nn.tower_ms.b{b}"), tower * 1e3, "ms");
        let items: Vec<_> =
            decoded.iter().cycle().take(b).map(|(i, s)| (i.clone(), *s, true)).collect();
        let (batch, _) = tr.span("serve.recognize_batch", root, b as u64, |_| {
            timed_median(REPS, || service.recognize_batch(&items))
        });
        out.detail(&format!("serve.recognize_batch_ms.b{b}"), batch * 1e3, "ms");
    }
    let q = embed(&offline.net, &[&tensors[0]]);
    let (head, _) = tr.span("nn.head", root, 0, |_| timed_median(REPS * 2, || offline.head(&q)));
    out.detail("nn.head_ms", head * 1e3, "ms");

    // Transport: request latency minus the direct service time of the
    // same crop (one-item batch).
    let direct_ms: Vec<f64> = decoded
        .iter()
        .map(|(img, s)| {
            let item = [(img.clone(), *s, true)];
            tr.span("serve.recognize_batch", root, 1, |_| {
                timed_median(3, || service.recognize_batch(&item)).0 * 1e3
            })
        })
        .collect();
    let transport: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.replies.iter().map(|r| r.latency_ms - direct_ms[r.crop]))
        .collect();
    out.detail("serve.transport_ms", median(&transport), "ms");
}
