//! Fixture: a file every lint passes — the negative control proving the
//! gate's zero-finding exit path.
//!
//! Not compiled — lint corpus only.

pub fn spmv(stream: &S, arena: &mut Arena, x: &[f64], out: &mut [f64]) -> Result<(), KernelError> {
    let scratch = arena.take_f64(stream.max_fiber_len())?;
    stream.for_each_fiber_in(arena, &mut |row, cols, vals| {
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        out[row] = acc;
    });
    arena.give_f64(scratch);
    Ok(())
}

pub fn consistent_locking(pool: &Pool) -> Result<usize, ServeError> {
    let q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
    let s = pool.stats.lock().unwrap_or_else(|e| e.into_inner());
    Ok(q.len() + s.enqueued)
}
