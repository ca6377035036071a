//! Flight-recorder integration: ring wraparound under concurrent writers
//! and the panic hook's JSONL dump.

use std::sync::{Mutex, MutexGuard};

use graphiti_obs::flight;

/// Flight state is process-global; tests in this binary serialize here.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn concurrent_writers_fill_the_ring_without_gaps() {
    let _guard = lock();
    flight::clear();
    flight::enable();
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 700; // 2800 total: the ring laps twice
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    flight::record("test.concurrent", move || format!("w{w} e{i}"));
                }
            });
        }
    });
    flight::disable();
    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(flight::recorded(), total);
    assert_eq!(flight::dropped(), total - flight::CAPACITY as u64);
    let events = flight::events();
    assert_eq!(events.len(), flight::CAPACITY);
    // The ring retains exactly the highest CAPACITY sequence numbers,
    // gap-free and sorted, regardless of writer interleaving.
    for (k, e) in events.iter().enumerate() {
        assert_eq!(e.seq, total - flight::CAPACITY as u64 + k as u64);
    }
    flight::clear();
}

#[test]
fn panic_dump_writes_the_ring_as_jsonl() {
    let _guard = lock();
    flight::clear();
    flight::enable();
    let dir = std::env::temp_dir().join(format!("graphiti-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("dump.jsonl");
    flight::install_panic_hook(&dump);

    flight::record("test.panic", || "the last thing that happened".to_string());
    flight::record("test.panic", || "and the very last".to_string());
    // The hook fires on any panic; catch it so the test continues. Silence
    // the default hook's backtrace noise by panicking in a thread.
    let result = std::thread::scope(|s| s.spawn(|| panic!("boom")).join());
    assert!(result.is_err());

    let dumped = std::fs::read_to_string(&dump).expect("panic hook wrote the dump");
    let lines: Vec<&str> = dumped.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"kind\": \"test.panic\""));
    assert!(lines[0].contains("the last thing that happened"));
    assert!(lines[1].contains("and the very last"));
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
    // On-demand dump matches the panic dump.
    assert_eq!(flight::jsonl(), dumped);
    assert_eq!(flight::tail_lines(1), vec![lines[1].to_string()]);

    flight::disable();
    flight::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reset_clears_the_flight_ring() {
    let _guard = lock();
    flight::clear();
    flight::enable();
    flight::record("test.reset", || "before reset".to_string());
    assert_eq!(flight::recorded(), 1);
    graphiti_obs::reset();
    assert_eq!(flight::recorded(), 0);
    assert!(flight::events().is_empty());
    flight::disable();
}
