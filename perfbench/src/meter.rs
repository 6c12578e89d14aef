//! The timing `Backend` wrapper: forwards every trait method unchanged
//! and records each call as a span carrying its method class, path
//! class, path identity and byte count. Stacked over `MemBackend` (as
//! layer `backend`) and, on the dedup workload, also over
//! `ChunkBackend` (as layer `chunk`).

use crate::trace::{fnv, Io, Layer, Method, PathClass, Tracer, FNV_SEED};
use plfs::Backend;
use std::io;
use std::sync::Arc;

pub struct Metered {
    inner: Arc<dyn Backend>,
    layer: Layer,
    tracer: Tracer,
}

impl Metered {
    pub fn new(inner: Arc<dyn Backend>, layer: Layer, tracer: Tracer) -> Self {
        Metered { inner, layer, tracer }
    }

    fn run<T>(
        &self,
        name: &'static str,
        method: Method,
        path: &str,
        f: impl FnOnce(&dyn Backend) -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        self.tracer.io(
            self.layer,
            name,
            || f(self.inner.as_ref()),
            |out| Io {
                method,
                class: PathClass::of(path),
                path: fnv(FNV_SEED, path.as_bytes()),
                bytes: bytes(out),
            },
        )
    }

    fn meta<T>(&self, name: &'static str, path: &str, f: impl FnOnce(&dyn Backend) -> T) -> T {
        self.run(name, Method::Meta, path, f, |_| 0)
    }
}

fn ok_len(r: &io::Result<usize>) -> u64 {
    r.as_ref().map_or(0, |n| *n as u64)
}

impl Backend for Metered {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        self.meta("mkdir_all", path, |b| b.mkdir_all(path))
    }

    fn create(&self, path: &str) -> io::Result<()> {
        self.meta("create", path, |b| b.create(path))
    }

    fn create_new(&self, path: &str) -> io::Result<()> {
        self.meta("create_new", path, |b| b.create_new(path))
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let n = data.len() as u64;
        self.run(
            "append",
            Method::Append,
            path,
            |b| b.append(path, data),
            |r| if r.is_ok() { n } else { 0 },
        )
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.run("read_at", Method::ReadAt, path, |b| b.read_at(path, off, buf), ok_len)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.meta("len", path, |b| b.len(path))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.meta("list", dir, |b| b.list(dir))
    }

    fn exists(&self, path: &str) -> bool {
        self.meta("exists", path, |b| b.exists(path))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.meta("rename", to, |b| b.rename(from, to))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.meta("remove", path, |b| b.remove(path))
    }

    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        self.meta("remove_dir_all", path, |b| b.remove_dir_all(path))
    }

    fn read_all(&self, path: &str) -> io::Result<Vec<u8>> {
        self.run(
            "read_all",
            Method::ReadAt,
            path,
            |b| b.read_all(path),
            |r| r.as_ref().map_or(0, |v| v.len() as u64),
        )
    }
}
