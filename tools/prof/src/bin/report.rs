//! Symbolizes the sampler's profiles into per-layer, per-thread shares.
//!
//! ```text
//! report PATH...
//! ```
//!
//! Each `PATH` is a `prof-<pid>.txt` file or a directory of them; only the
//! benchmark's measured children (see [`MEASURED_CHILD`]) count. Every sampled
//! address is mapped to its object's file address by the `PT_LOAD` segment
//! that holds its file offset — by the segment's `p_vaddr`, which in the
//! benchmark binary is `p_offset + 0x1000`, so mapping by file offset
//! would name the wrong functions — and each executable is symbolized by
//! one `addr2line -a -f -i -C` call, inlined frames included.
//!
//! A sample counts for its thread — the helper is the `topick-attention`
//! thread, the caller every other — in one phase and one layer: set-up if
//! any frame is in the benchmark's `timed_setup` (see [`SETUP_FN`]),
//! measured otherwise, and the layer of its innermost workspace frame. It
//! prints `profile.<phase>.<layer>.<thread>_share`, each thread's shares
//! summing to 1, then per thread and phase the functions found anywhere
//! on the most stacks (inclusive) and innermost on the most (self), and the
//! source lines innermost on the most: each the `file:line` of a sample's
//! innermost workspace frame beside the raw innermost symbol, so a line
//! whose cost is a libc `memcpy` reads `…/queue.rs:302  [libc.so.6]`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Layers by the source file a frame's code is in (its path from the
/// repository root), most specific first; an empty function prefix
/// matches every function in the file.
const LAYERS: &[(&str, &str, &str)] = &[
    ("model.synth", "crates/model/src/synth.rs", ""),
    ("model.synth", "crates/model/src/rng.rs", ""),
    ("core.quant", "crates/core/src/quant.rs", ""),
    ("core.estimate", "crates/core/", ""),
    ("dram", "crates/dram/", ""),
    ("serve.lend", "crates/accel/src/serve/lend.rs", ""),
    ("serve.lend", "crates/accel/src/serve/helper.rs", ""),
    ("serve.admit", "crates/accel/src/serve/queue.rs", ""),
    ("serve.admit", "crates/accel/src/serve/router.rs", ""),
    ("serve.admit", "crates/accel/src/serve/mod.rs", "enqueue"),
    ("serve.admit", "crates/accel/src/serve/mod.rs", "admit"),
    (
        "serve.admit",
        "crates/accel/src/serve/cluster.rs",
        "enqueue",
    ),
    ("pager", "crates/accel/src/serve/kv_pager.rs", ""),
    ("pager", "crates/accel/src/serve/residency.rs", ""),
    ("policy", "crates/accel/src/serve/policy.rs", ""),
    ("trace", "crates/accel/src/serve/trace.rs", ""),
    (
        "model.forward",
        "crates/accel/src/serve/token_backed.rs",
        "",
    ),
    ("model.forward", "crates/model/", ""),
    ("serve.batch", "crates/accel/src/serve/", ""),
    ("accel.engine", "crates/accel/", ""),
    ("harness", "benchmark/src/", ""),
];
/// The layer of a sample with no workspace frame, or of a workspace
/// crate no layer names.
const OTHER: &str = "other";
/// Where workspace sources sit below the repository root.
const WORKSPACE_DIRS: [&str; 2] = ["/crates/", "/benchmark/src/"];

/// The benchmark function that builds a run: every sample under it is
/// set-up. With line tables alone it is often inlined away without a
/// frame of its own, so a frame whose call site lies inside its body —
/// where the set-up closures it runs are called from — counts as well.
const SETUP_FN: &str = "timed_setup";

/// The helper thread's name, as `PR_GET_NAME` truncates it (15 bytes).
const HELPER_COMM: &str = "topick-attentio";

#[derive(Debug, Clone, PartialEq)]
struct Map {
    start: u64,
    end: u64,
    offset: u64,
    path: String,
}

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    comm: String,
    /// Innermost first: the interrupted address, then return addresses.
    frames: Vec<u64>,
}

#[derive(Debug, Default)]
struct Profile {
    cmdline: String,
    exe: String,
    maps: Vec<Map>,
    samples: Vec<Sample>,
    dropped: u64,
    period_us: u64,
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|e| format!("'{s}': {e}"))
}

fn parse_profile(text: &str) -> Result<Profile, String> {
    let mut p = Profile::default();
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "topick-prof" | "" => {}
            "period_us" => p.period_us = rest.parse().map_err(|e| format!("period_us: {e}"))?,
            "dropped" => p.dropped = rest.parse().map_err(|e| format!("dropped: {e}"))?,
            "cmdline" => p.cmdline = rest.to_string(),
            "exe" => p.exe = rest.to_string(),
            "map" => {
                let f: Vec<&str> = rest.splitn(4, ' ').collect();
                let [start, end, offset, path] = f[..] else {
                    return Err(format!("bad map line '{line}'"));
                };
                p.maps.push(Map {
                    start: hex(start)?,
                    end: hex(end)?,
                    offset: hex(offset)?,
                    path: path.to_string(),
                });
            }
            "s" => {
                let mut f = rest.split(' ');
                let (Some(_tid), Some(comm)) = (f.next(), f.next()) else {
                    return Err(format!("bad sample line '{line}'"));
                };
                let frames = f.map(hex).collect::<Result<_, _>>()?;
                p.samples.push(Sample {
                    comm: comm.to_string(),
                    frames,
                });
            }
            _ => return Err(format!("unknown line '{line}'")),
        }
    }
    Ok(p)
}

/// A loadable segment: the file bytes `offset..offset + filesz` are
/// mapped at `vaddr`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    offset: u64,
    vaddr: u64,
    filesz: u64,
}

/// The `PT_LOAD` segments of a 64-bit little-endian ELF file.
fn load_segments(elf: &[u8]) -> Result<Vec<Segment>, String> {
    let u16_at = |at: usize| {
        elf.get(at..at + 2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
    };
    let u64_at = |at: usize| {
        elf.get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    if elf.get(..6) != Some(b"\x7fELF\x02\x01") {
        return Err("not a 64-bit little-endian ELF file".into());
    }
    let (Some(phoff), Some(phentsize), Some(phnum)) = (u64_at(0x20), u16_at(0x36), u16_at(0x38))
    else {
        return Err("truncated ELF header".into());
    };
    let mut segments = Vec::new();
    for i in 0..usize::from(phnum) {
        let ph = phoff as usize + i * usize::from(phentsize);
        let (Some(kind), Some(offset), Some(vaddr), Some(filesz)) = (
            elf.get(ph..ph + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))),
            u64_at(ph + 8),
            u64_at(ph + 16),
            u64_at(ph + 32),
        ) else {
            return Err("truncated program header".into());
        };
        if kind == 1 {
            segments.push(Segment {
                offset,
                vaddr,
                filesz,
            });
        }
    }
    Ok(segments)
}

/// The file address (`addr2line`'s) of a sampled address, through the
/// mapping that holds it and the segment that holds its file offset.
fn file_address(
    maps: &[Map],
    segments: &HashMap<String, Vec<Segment>>,
    addr: u64,
) -> Option<(String, u64)> {
    let map = maps.iter().find(|m| (m.start..m.end).contains(&addr))?;
    let offset = addr - map.start + map.offset;
    let vaddr = segments
        .get(&map.path)?
        .iter()
        .find(|s| (s.offset..s.offset + s.filesz).contains(&offset))
        .map(|s| offset - s.offset + s.vaddr)?;
    Some((map.path.clone(), vaddr))
}

/// One source-level frame, as `addr2line` names it: an outlined
/// function by its whole path, an inlined one by its bare name.
#[derive(Debug, Clone, PartialEq)]
struct Frame {
    func: String,
    /// The source file of the frame's code, as the build recorded it.
    file: String,
    /// The line in `file`; 0 when unknown.
    line: u32,
}

impl Frame {
    /// A frame in an object that is not symbolized.
    fn object(name: &str) -> Self {
        Self {
            func: format!("[{}]", name.rsplit('/').next().unwrap_or(name)),
            file: String::new(),
            line: 0,
        }
    }
}

/// Parses `addr2line -a -f -i` output: each address line, then a function
/// line and a `file:line` line per frame, innermost first.
fn parse_addr2line(out: &str) -> Result<HashMap<u64, Vec<Frame>>, String> {
    let mut frames: HashMap<u64, Vec<Frame>> = HashMap::new();
    let mut current = None;
    let mut lines = out.lines();
    while let Some(line) = lines.next() {
        if line.len() > 2
            && line.starts_with("0x")
            && line[2..].bytes().all(|b| b.is_ascii_hexdigit())
        {
            current = Some(hex(line)?);
            continue;
        }
        let addr = current.ok_or_else(|| format!("addr2line: '{line}' before any address"))?;
        let loc = lines.next().unwrap_or("??:0");
        // `file:line`, maybe followed by ` (discriminator N)`.
        let loc = loc.split(" (").next().unwrap_or(loc);
        let (file, line_no) = loc.rsplit_once(':').unwrap_or((loc, "0"));
        frames.entry(addr).or_default().push(Frame {
            func: line.to_string(),
            file: file.to_string(),
            line: line_no.parse().unwrap_or(0),
        });
    }
    Ok(frames)
}

/// Symbolizes `addrs`, file addresses in `object`, by one `addr2line`
/// call.
fn addr2line(object: &str, addrs: &[u64]) -> Result<HashMap<u64, Vec<Frame>>, String> {
    let mut child = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e", object])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run addr2line: {e}"))?;
    let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child
        .wait_with_output()
        .map_err(|e| format!("addr2line: {e}"))?;
    writer
        .join()
        .expect("the writer does not panic")
        .map_err(|e| format!("addr2line stdin: {e}"))?;
    if !out.status.success() {
        return Err(format!("addr2line failed on {object}: {}", out.status));
    }
    parse_addr2line(&String::from_utf8_lossy(&out.stdout))
}

/// A function's name without its path or generic arguments:
/// `timed_setup` for `topick_benchmark::run::timed_setup` and for
/// `timed_setup<T, F>`, `push` for `Vec<T>::push`, `route` for
/// `<A as B>::route`.
fn short_name(func: &str) -> &str {
    let bytes = func.as_bytes();
    let (mut depth, mut start, mut end) = (0usize, 0, None);
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => {
                if depth == 0 && i > 0 {
                    end = end.or(Some(i));
                }
                depth += 1;
            }
            // Not the arrow of `fn() -> T`.
            b'>' if i == 0 || bytes[i - 1] != b'-' => depth = depth.saturating_sub(1),
            b':' if depth == 0 && bytes.get(i + 1) == Some(&b':') => {
                start = i + 2;
                end = None;
            }
            _ => {}
        }
    }
    func.get(start..end.unwrap_or(func.len()))
        .filter(|s| !s.is_empty())
        .unwrap_or(func)
}

/// A workspace source's path from the repository root, `None` for any
/// other file: an unsymbolized object, or the standard library, whose
/// sources the build records under `/rustc/` (its `stdarch` has a
/// `crates/` directory too).
fn workspace_path(file: &str) -> Option<&str> {
    if file.starts_with("/rustc/") {
        return None;
    }
    WORKSPACE_DIRS
        .iter()
        .filter_map(|dir| file.rfind(dir).map(|at| &file[at + 1..]))
        .min_by_key(|rel| rel.len())
}

/// The layer of a workspace frame.
fn layer_of(frame: &Frame) -> Option<&'static str> {
    let rel = workspace_path(&frame.file)?;
    let name = short_name(&frame.func);
    Some(
        LAYERS
            .iter()
            .find(|&&(_, file, prefix)| rel.starts_with(file) && name.starts_with(prefix))
            .map_or(OTHER, |&(layer, _, _)| layer),
    )
}

/// The line spans, from its `fn` line to the closing brace at the same
/// indentation, of every function called `name` in a Rust source.
fn fn_spans(source: &str, name: &str) -> Vec<(u32, u32)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut spans = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let body = l.trim_start();
        let indent = &l[..l.len() - body.len()];
        let named = body.split_once("fn ").is_some_and(|(before, after)| {
            !before.contains("//")
                && after
                    .strip_prefix(name)
                    .is_some_and(|r| r.starts_with(['<', '(']))
        });
        if !named {
            continue;
        }
        let close = format!("{indent}}}");
        if let Some(j) = (i + 1..lines.len()).find(|&j| lines[j] == close) {
            spans.push((i as u32 + 1, j as u32 + 1));
        }
    }
    spans
}

/// Samples per key.
type Counts = HashMap<String, usize>;

/// One thread's samples.
#[derive(Default)]
struct Tally {
    samples: usize,
    /// Samples per `(phase, layer)`.
    layers: BTreeMap<(&'static str, &'static str), usize>,
    /// Per phase: samples per phase, then per workspace function anywhere
    /// on the stack, per innermost workspace function, and per innermost
    /// workspace line with the raw innermost symbol.
    phases: BTreeMap<&'static str, (usize, Counts, Counts, Counts)>,
}

/// The command line that marks a process as one of the benchmark's
/// measured children; its parent and its baseline and traced children
/// are not profiled.
const MEASURED_CHILD: &str = "--child topick";

/// Functions listed per thread, phase and kind of share.
const TOP: usize = 12;

const USAGE: &str = "usage: report PATH...";

fn read_profiles(paths: &[String]) -> Result<Vec<Profile>, String> {
    let mut files = Vec::new();
    for path in paths {
        match std::fs::read_dir(path) {
            Ok(dir) => {
                let mut found: Vec<_> = dir
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("prof-") && n.ends_with(".txt"))
                    })
                    .collect();
                found.sort();
                files.extend(found);
            }
            Err(_) => files.push(path.into()),
        }
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_profile(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// A sampled address's object and file address, if it was mapped.
type Located = Option<(String, u64)>;

/// Symbolizes every sample: its frames, innermost first, inlined ones
/// expanded.
fn symbolize(profiles: &[Profile]) -> Result<Vec<Vec<Vec<Frame>>>, String> {
    let mut segments: HashMap<String, Vec<Segment>> = HashMap::new();
    for m in profiles.iter().flat_map(|p| &p.maps) {
        if !segments.contains_key(&m.path) {
            let found = std::fs::read(&m.path)
                .ok()
                .and_then(|elf| load_segments(&elf).ok())
                .unwrap_or_default();
            segments.insert(m.path.clone(), found);
        }
    }
    let exes: HashSet<&str> = profiles.iter().map(|p| p.exe.as_str()).collect();
    let located: Vec<Vec<Vec<Located>>> = profiles
        .iter()
        .map(|p| {
            p.samples
                .iter()
                .map(|s| {
                    s.frames
                        .iter()
                        .enumerate()
                        // A return address's call is the byte before it.
                        .map(|(i, &a)| file_address(&p.maps, &segments, a - u64::from(i > 0)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut wanted: HashMap<&str, HashSet<u64>> = HashMap::new();
    for (object, addr) in located.iter().flatten().flatten().flatten() {
        if exes.contains(object.as_str()) {
            wanted.entry(object).or_default().insert(*addr);
        }
    }
    let mut symbols: HashMap<&str, HashMap<u64, Vec<Frame>>> = HashMap::new();
    for (object, addrs) in wanted {
        let mut addrs: Vec<u64> = addrs.into_iter().collect();
        addrs.sort_unstable();
        symbols.insert(object, addr2line(object, &addrs)?);
    }
    Ok(located
        .iter()
        .map(|per_sample| {
            per_sample
                .iter()
                .map(|frames| {
                    frames
                        .iter()
                        .flat_map(|f| match f {
                            Some((object, addr)) => symbols
                                .get(object.as_str())
                                .and_then(|m| m.get(addr))
                                .cloned()
                                .unwrap_or_else(|| vec![Frame::object(object)]),
                            None => vec![Frame::object("unmapped")],
                        })
                        .collect()
                })
                .collect()
        })
        .collect())
}

fn share(n: usize, of: usize) -> f64 {
    n as f64 / of.max(1) as f64
}

fn run(paths: &[String]) -> Result<String, String> {
    if paths.is_empty() || paths.iter().any(|p| p.starts_with('-')) {
        return Err(USAGE.into());
    }
    let profiles: Vec<Profile> = read_profiles(paths)?
        .into_iter()
        .filter(|p| p.cmdline.contains(MEASURED_CHILD))
        .collect();
    if profiles.is_empty() {
        return Err(format!("no profile of a '{MEASURED_CHILD}' process"));
    }
    let stacks = symbolize(&profiles)?;
    Ok(report(&profiles, &stacks))
}

/// The report on `profiles`, whose samples' frames `stacks` holds.
fn report(profiles: &[Profile], stacks: &[Vec<Vec<Frame>>]) -> String {
    // Where `timed_setup`'s body is, in every source file that has it.
    let mut setup_spans: HashMap<&str, Vec<(u32, u32)>> = HashMap::new();
    for f in stacks.iter().flatten().flatten() {
        if workspace_path(&f.file).is_some() && !setup_spans.contains_key(f.file.as_str()) {
            let source = std::fs::read_to_string(&f.file).unwrap_or_default();
            setup_spans.insert(&f.file, fn_spans(&source, SETUP_FN));
        }
    }
    let is_setup = |f: &Frame| {
        short_name(&f.func) == SETUP_FN
            || setup_spans
                .get(f.file.as_str())
                .is_some_and(|spans| spans.iter().any(|&(a, b)| (a..=b).contains(&f.line)))
    };
    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    for (p, per_sample) in profiles.iter().zip(stacks) {
        for (s, chain) in p.samples.iter().zip(per_sample) {
            let thread = if s.comm.starts_with(HELPER_COMM) {
                "helper"
            } else {
                "caller"
            };
            let phase = if chain.iter().any(is_setup) {
                "setup"
            } else {
                "measured"
            };
            let inner = chain.iter().find_map(|f| Some((f, layer_of(f)?)));
            let layer = inner.map_or(OTHER, |(_, layer)| layer);
            let key = |f: &Frame| match workspace_path(&f.file) {
                Some(rel) => format!("{}  {rel}", short_name(&f.func)),
                None => f.func.clone(),
            };
            let t = tallies.entry(thread).or_default();
            t.samples += 1;
            *t.layers.entry((phase, layer)).or_default() += 1;
            let (n, inclusive, innermost, lines) = t.phases.entry(phase).or_default();
            *n += 1;
            let own = inner.map(|(f, _)| f).or(chain.first());
            *innermost
                .entry(own.map_or_else(|| "?".into(), key))
                .or_default() += 1;
            let line = inner.and_then(|(f, _)| Some((workspace_path(&f.file)?, f.line)));
            if let (Some((rel, line)), Some(raw)) = (line, chain.first()) {
                *lines
                    .entry(format!("{rel}:{line}  {}", raw.func))
                    .or_default() += 1;
            }
            let seen: HashSet<String> = chain
                .iter()
                .filter(|f| workspace_path(&f.file).is_some())
                .map(key)
                .collect();
            for k in seen {
                *inclusive.entry(k).or_default() += 1;
            }
        }
    }
    let total: usize = tallies.values().map(|t| t.samples).sum();
    let dropped: u64 = profiles.iter().map(|p| p.dropped).sum();
    let mut out = format!(
        "# {} processes, {total} samples ({dropped} dropped), one per {} us of CPU time\n\
         # shares cover the whole process, set-up and harness included; each thread's sum to 1\n",
        profiles.len(),
        profiles[0].period_us,
    );
    for (thread, t) in &tallies {
        out += &format!("# {thread}: {} samples\n", t.samples);
    }
    for (thread, t) in &tallies {
        for ((phase, layer), n) in &t.layers {
            out += &format!(
                "profile.{phase}.{layer}.{thread}_share {:.4}\n",
                share(*n, t.samples)
            );
        }
    }
    for (thread, t) in &tallies {
        for (phase, (n, inclusive, innermost, lines)) in &t.phases {
            for (what, counts) in [
                ("inclusive", inclusive),
                ("innermost", innermost),
                ("innermost line", lines),
            ] {
                out += &format!(
                    "# {thread} {phase} ({:.1} % of the thread), {what}, share of the thread:\n",
                    100.0 * share(*n, t.samples)
                );
                let mut rows: Vec<(&String, &usize)> = counts.iter().collect();
                rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
                for (func, n) in rows.into_iter().take(TOP) {
                    out += &format!("#   {:6.2} %  {func}\n", 100.0 * share(*n, t.samples));
                }
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ELF header and `PT_LOAD` program headers `(offset, vaddr,
    /// filesz)`, as `load_segments` reads them.
    fn elf_with(loads: &[(u64, u64, u64)]) -> Vec<u8> {
        let mut elf = vec![0u8; 64];
        elf[..6].copy_from_slice(b"\x7fELF\x02\x01");
        elf[0x20..0x28].copy_from_slice(&64u64.to_le_bytes());
        elf[0x36..0x38].copy_from_slice(&56u16.to_le_bytes());
        elf[0x38..0x3a].copy_from_slice(&(loads.len() as u16 + 1).to_le_bytes());
        // A non-loadable header first, which must be skipped.
        let mut note = vec![0u8; 56];
        note[..4].copy_from_slice(&4u32.to_le_bytes());
        elf.extend(note);
        for &(offset, vaddr, filesz) in loads {
            let mut ph = vec![0u8; 56];
            ph[..4].copy_from_slice(&1u32.to_le_bytes());
            ph[8..16].copy_from_slice(&offset.to_le_bytes());
            ph[16..24].copy_from_slice(&vaddr.to_le_bytes());
            ph[32..40].copy_from_slice(&filesz.to_le_bytes());
            elf.extend(ph);
        }
        elf
    }

    /// The benchmark binary's layout: the text segment's `p_vaddr` is its
    /// `p_offset + 0x1000`, and the kernel maps it from a page-aligned file
    /// offset below `p_offset`. A sampled address must land on its
    /// segment's virtual address, not on its file offset.
    #[test]
    fn an_address_maps_by_its_segments_vaddr_not_its_file_offset() {
        let elf = elf_with(&[
            (0, 0, 0x468f8),
            (0x46900, 0x47900, 0xedbf0),
            (0x1344f0, 0x1364f0, 0xb728),
        ]);
        let segments = load_segments(&elf).unwrap();
        assert_eq!(segments.len(), 3);
        assert_eq!(
            segments[1],
            Segment {
                offset: 0x46900,
                vaddr: 0x47900,
                filesz: 0xedbf0
            }
        );
        let exe = "/bench/topick-benchmark".to_string();
        let start = 0x5600_0000_0000;
        let maps = vec![Map {
            start,
            end: start + 0xef000,
            offset: 0x46000,
            path: exe.clone(),
        }];
        let objects = HashMap::from([(exe.clone(), segments)]);
        // File offset 0x4f000 holds virtual address 0x50000.
        let sampled = start + (0x4f000 - 0x46000);
        assert_eq!(
            file_address(&maps, &objects, sampled),
            Some((exe.clone(), 0x50000))
        );
        // The segment's first byte, and nothing outside a mapping.
        assert_eq!(
            file_address(&maps, &objects, start + 0x900),
            Some((exe, 0x47900))
        );
        assert_eq!(file_address(&maps, &objects, start - 1), None);
        assert!(load_segments(b"\x7fELF\x01\x01").is_err());
        assert!(load_segments(&elf[..100]).is_err());
    }

    #[inline(never)]
    fn a_marker_function(x: u64) -> u64 {
        x.rotate_left(7) ^ 0x5851_F42D_4C95_7F2D
    }

    /// The report's own test binary, mapped from `/proc/self/maps` and
    /// symbolized by `addr2line`, names the function an address is in.
    #[test]
    fn a_live_address_symbolizes_to_its_function() {
        assert_ne!(a_marker_function(1), 0);
        let exe = std::fs::read_link("/proc/self/exe")
            .unwrap()
            .display()
            .to_string();
        let maps: Vec<Map> = std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let (start, end) = f[0].split_once('-')?;
                (f[1].contains('x') && f.get(5) == Some(&exe.as_str())).then(|| Map {
                    start: hex(start).unwrap(),
                    end: hex(end).unwrap(),
                    offset: hex(f[2]).unwrap(),
                    path: exe.clone(),
                })
            })
            .collect();
        let segments = HashMap::from([(
            exe.clone(),
            load_segments(&std::fs::read(&exe).unwrap()).unwrap(),
        )]);
        let addr = a_marker_function as *const () as u64;
        let (object, vaddr) = file_address(&maps, &segments, addr).unwrap();
        let frames = addr2line(&object, &[vaddr]).unwrap();
        assert!(
            frames[&vaddr][0].func.contains("a_marker_function"),
            "{:?}",
            frames[&vaddr]
        );
    }

    #[test]
    fn addr2line_output_parses_with_inlined_frames() {
        let out = "0x0000000000001234\n\
                   token_at\n/src/crates/accel/src/serve/queue.rs:144\n\
                   topick_accel::serve::queue::ServingRequest::page_keys\n/src/crates/accel/src/serve/queue.rs:165 (discriminator 2)\n\
                   0x0000000000005678\n??\n??:0\n";
        let frames = parse_addr2line(out).unwrap();
        let f = &frames[&0x1234];
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].func.as_str(), f[0].line), ("token_at", 144));
        assert_eq!(f[1].file, "/src/crates/accel/src/serve/queue.rs");
        assert_eq!(f[1].line, 165);
        assert_eq!(frames[&0x5678][0].line, 0);
        assert!(parse_addr2line("orphan\n").is_err());
    }

    /// Two caller samples symbolized from canned `addr2line` output: one
    /// interrupted in libc under an inlined `Vec::push` in the queue, one
    /// in the enqueue's own code. The line rows name each sample's
    /// innermost workspace line beside its raw innermost symbol.
    #[test]
    fn innermost_lines_carry_the_raw_innermost_symbol() {
        let out = "0x10\n\
                   core::ptr::write<T>\n/rustc/abc/library/core/src/ptr/mod.rs:1\n\
                   alloc::vec::Vec<T>::push\n/rustc/abc/library/alloc/src/vec/mod.rs:2\n\
                   topick_accel::serve::queue::PendingQueue::push\n/r/crates/accel/src/serve/queue.rs:302\n\
                   0x20\n\
                   topick_accel::serve::ServingEngine::enqueue_with_shipped\n/r/crates/accel/src/serve/mod.rs:746\n";
        let symbols = parse_addr2line(out).unwrap();
        let text = "cmdline bench --child topick\nexe /b/bench\n\
                    s 7 topick-benchmar 9000 10\ns 7 topick-benchmar 20\ns 7 topick-benchmar 20\n";
        let profile = parse_profile(text).unwrap();
        let stacks = vec![profile
            .samples
            .iter()
            .map(|s| {
                s.frames
                    .iter()
                    .flat_map(|a| {
                        symbols
                            .get(a)
                            .cloned()
                            .unwrap_or_else(|| vec![Frame::object("/usr/lib/libc.so.6")])
                    })
                    .collect()
            })
            .collect()];
        let out = report(&[profile], &stacks);
        assert!(
            out.contains(
                "# caller measured (100.0 % of the thread), innermost line, share of the thread:\n\
                          #    66.67 %  crates/accel/src/serve/mod.rs:746  \
                          topick_accel::serve::ServingEngine::enqueue_with_shipped\n\
                          #    33.33 %  crates/accel/src/serve/queue.rs:302  [libc.so.6]\n"
            ),
            "{out}"
        );
    }

    #[test]
    fn names_paths_and_layers() {
        assert_eq!(
            short_name("topick_benchmark::run::timed_setup"),
            "timed_setup"
        );
        assert_eq!(short_name("timed_setup<topick_accel::X, F>"), "timed_setup");
        assert_eq!(short_name("<topick_accel::serve::router::PrefixAffinity as topick_accel::serve::router::RoutingPolicy>::route"), "route");
        assert_eq!(short_name("{closure#0}<&u64, fn() -> u8>"), "{closure#0}");
        assert_eq!(short_name("alloc::vec::Vec<T>::push"), "push");
        assert_eq!(
            workspace_path("/a/repo/crates/accel/src/serve/queue.rs"),
            Some("crates/accel/src/serve/queue.rs")
        );
        assert_eq!(
            workspace_path("/a/repo/benchmark/src/run.rs"),
            Some("benchmark/src/run.rs")
        );
        assert_eq!(
            workspace_path("/rustc/abc/library/core/src/iter/range.rs"),
            None
        );
        assert_eq!(
            workspace_path("/rustc/abc/library/stdarch/crates/core_arch/src/x86/sse2.rs"),
            None
        );
        let frame = |func: &str, file: &str| Frame {
            func: func.into(),
            file: file.into(),
            line: 1,
        };
        assert_eq!(
            layer_of(&frame("token_at", "/r/crates/accel/src/serve/queue.rs")),
            Some("serve.admit")
        );
        assert_eq!(
            layer_of(&frame(
                "topick_accel::serve::ServingEngine::enqueue_with_shipped",
                "/r/crates/accel/src/serve/mod.rs"
            )),
            Some("serve.admit")
        );
        assert_eq!(
            layer_of(&frame("step", "/r/crates/accel/src/serve/mod.rs")),
            Some("serve.batch")
        );
        assert_eq!(
            layer_of(&frame("approx_normals", "/r/crates/model/src/rng.rs")),
            Some("model.synth")
        );
        assert_eq!(
            layer_of(&frame("decode_step", "/r/crates/model/src/model.rs")),
            Some("model.forward")
        );
        assert_eq!(
            layer_of(&frame("attention_cost", "/r/crates/accel/src/engine.rs")),
            Some("accel.engine")
        );
        assert_eq!(
            layer_of(&frame("drive", "/r/benchmark/src/run.rs")),
            Some("harness")
        );
        assert_eq!(
            layer_of(&frame("energy", "/r/crates/energy/src/lib.rs")),
            Some(OTHER)
        );
        assert_eq!(layer_of(&Frame::object("/usr/lib/libc.so.6")), None);
    }

    #[test]
    fn a_functions_span_runs_to_its_closing_brace() {
        let source = "fn other() {}\n\
                      // fn timed_setup( in a comment\n\
                      fn timed_setup<T>(\n    build: impl FnMut() -> T,\n) -> T {\n    build()\n}\n\
                      impl X {\n    pub fn timed_setup(&self) {\n        body();\n    }\n}\n\
                      fn timed_setup_more() {\n}\n";
        assert_eq!(fn_spans(source, "timed_setup"), vec![(3, 7), (9, 11)]);
    }

    #[test]
    fn profiles_parse_and_bad_lines_are_refused() {
        let text = "topick-prof 1\nperiod_us 2000\ndropped 3\ncmdline bench --child topick\n\
                    exe /b/bench\nmap 1000 2000 0 /b/bench\ns 7 topick-attentio 1a2b 3c4d\n";
        let p = parse_profile(text).unwrap();
        assert_eq!(
            (p.period_us, p.dropped, p.exe.as_str()),
            (2000, 3, "/b/bench")
        );
        assert_eq!(
            p.maps[0],
            Map {
                start: 0x1000,
                end: 0x2000,
                offset: 0,
                path: "/b/bench".into()
            }
        );
        assert_eq!(
            p.samples,
            vec![Sample {
                comm: "topick-attentio".into(),
                frames: vec![0x1a2b, 0x3c4d]
            }]
        );
        assert!(parse_profile("s 7\n").is_err());
        assert!(parse_profile("map 1 2\n").is_err());
        assert!(parse_profile("what\n").is_err());
        assert_eq!(run(&[]), Err(USAGE.to_string()));
        assert_eq!(run(&["--top".into(), "x".into()]), Err(USAGE.to_string()));
    }
}
