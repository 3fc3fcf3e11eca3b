//! ASCII Gantt rendering of schedules — a human-readable view of what the
//! solver installed, used by examples and debugging sessions.
//!
//! One row per `(resource, slot pool)`, time flowing right, each task drawn
//! as a span labelled with its job id. Rows are scaled to a fixed width so
//! long horizons stay readable.

use crate::manager::{ManagerError, ScheduleEntry};
use desim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workload::{Resource, TaskKind};

/// Narrowest chart [`render`] can lay out.
pub const MIN_WIDTH: usize = 20;

/// Render `entries` (plus already-running tasks if the caller includes
/// them) as an ASCII Gantt chart over `resources`, `width` characters wide.
///
/// Tasks are attributed to the map or reduce pool by `kinds` — a lookup
/// from task to kind the caller provides (the manager knows it; examples
/// can close over their job definitions).
///
/// Fails with [`ManagerError::ChartTooNarrow`] below [`MIN_WIDTH`] and
/// [`ManagerError::ScheduleOverCapacity`] when concurrent entries exceed a
/// resource's slot capacity (a plan no audit-passing round produces) —
/// render errors must not abort a chaos run.
pub fn render(
    resources: &[Resource],
    entries: &[ScheduleEntry],
    kinds: &dyn Fn(workload::TaskId) -> TaskKind,
    width: usize,
) -> Result<String, ManagerError> {
    if width < MIN_WIDTH {
        return Err(ManagerError::ChartTooNarrow {
            width,
            min: MIN_WIDTH,
        });
    }
    if entries.is_empty() {
        return Ok("(empty schedule)\n".into());
    }
    let t0 = entries
        .iter()
        .map(|e| e.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    let t1 = entries.iter().map(|e| e.end).max().unwrap_or(SimTime::ZERO);
    let span = (t1 - t0).as_millis().max(1);
    let scale = |t: SimTime| -> usize {
        (((t - t0).as_millis() as f64 / span as f64) * (width as f64 - 1.0)).round() as usize
    };

    // Group entries per (resource, kind).
    let mut rows: BTreeMap<(u32, u8), Vec<&ScheduleEntry>> = BTreeMap::new();
    for e in entries {
        let kind = kinds(e.task);
        let key = (e.resource.0, matches!(kind, TaskKind::Reduce) as u8);
        rows.entry(key).or_default().push(e);
    }

    let mut out = String::new();
    let _ = writeln!(out, "gantt  {} .. {}  ({} tasks)", t0, t1, entries.len());
    for r in resources {
        for (kind_bit, kind_name, cap) in [
            (0u8, "map", r.map_capacity),
            (1u8, "reduce", r.reduce_capacity),
        ] {
            if cap == 0 {
                continue;
            }
            let Some(row_entries) = rows.get(&(r.id.0, kind_bit)) else {
                continue;
            };
            // Lay entries into `cap` lanes greedily by start time.
            let mut lanes: Vec<(i64, Vec<&ScheduleEntry>)> =
                (0..cap).map(|_| (i64::MIN, Vec::new())).collect();
            let mut sorted = row_entries.clone();
            sorted.sort_by_key(|e| (e.start, e.task));
            for e in sorted {
                let lane = lanes
                    .iter_mut()
                    .find(|(free_at, _)| *free_at <= e.start.as_millis())
                    .ok_or(ManagerError::ScheduleOverCapacity(e.task))?;
                lane.0 = e.end.as_millis();
                lane.1.push(e);
            }
            for (li, (_, lane)) in lanes.iter().enumerate() {
                let mut line = vec![b'.'; width];
                for e in lane {
                    let a = scale(e.start);
                    let b = scale(e.end).max(a + 1).min(width);
                    let label = format!("{}", e.job.0);
                    for (k, cell) in line[a..b].iter_mut().enumerate() {
                        *cell = if k < label.len() {
                            label.as_bytes()[k]
                        } else {
                            b'#'
                        };
                    }
                }
                // The row buffer only ever holds ASCII bytes.
                let row: String = line.iter().map(|&b| b as char).collect();
                let _ = writeln!(
                    out,
                    "{:>4} {:<6} {} |{}|",
                    r.id.to_string(),
                    kind_name,
                    li,
                    row
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{MrcpConfig, MrcpRm};
    use crate::ResourceManager;
    use desim::SimTime;
    use workload::model::homogeneous_cluster;
    use workload::{Job, JobId, Task, TaskId};

    fn job(id: u32, deadline: i64, maps: &[i64], reduces: &[i64]) -> Job {
        let mut next = id * 100;
        let mut mk = |kind, secs: i64| {
            let t = Task {
                id: TaskId(next),
                job: JobId(id),
                kind,
                exec_time: SimTime::from_secs(secs),
                req: 1,
            };
            next += 1;
            t
        };
        Job {
            id: JobId(id),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(deadline),
            map_tasks: maps.iter().map(|&s| mk(TaskKind::Map, s)).collect(),
            reduce_tasks: reduces.iter().map(|&s| mk(TaskKind::Reduce, s)).collect(),
            precedences: vec![],
        }
    }

    #[test]
    fn renders_rows_per_resource_pool() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let mut rm = MrcpRm::new(MrcpConfig::default(), cluster.clone());
        let j = job(7, 100, &[10, 10], &[5]);
        let kinds: std::collections::HashMap<TaskId, TaskKind> =
            j.tasks().map(|t| (t.id, t.kind)).collect();
        rm.submit(j, SimTime::ZERO).unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let chart = render(&cluster, &plan, &|t| kinds[&t], 40).unwrap();
        assert!(chart.contains("gantt"));
        assert!(chart.contains("map"));
        assert!(chart.contains("reduce"));
        assert!(chart.contains('7'), "job label appears: {chart}");
        // Two resources with 1 map lane each + reduce rows where used.
        assert!(chart.lines().count() >= 3, "{chart}");
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let cluster = homogeneous_cluster(1, 1, 1);
        let chart = render(&cluster, &[], &|_| TaskKind::Map, 40).unwrap();
        assert_eq!(chart, "(empty schedule)\n");
    }

    #[test]
    fn tiny_width_is_an_error_not_a_panic() {
        let cluster = homogeneous_cluster(1, 1, 1);
        let err = render(&cluster, &[], &|_| TaskKind::Map, 5).unwrap_err();
        assert_eq!(
            err,
            ManagerError::ChartTooNarrow {
                width: 5,
                min: MIN_WIDTH
            }
        );
        assert!(err.to_string().contains("width 5"));
    }

    #[test]
    fn over_capacity_schedule_is_an_error_not_a_panic() {
        use crate::manager::ScheduleEntry;
        use workload::ResourceId;
        let cluster = homogeneous_cluster(1, 1, 1);
        // Two overlapping entries on the single map slot of r0: no lane
        // assignment exists.
        let mk = |tid: u32, start: i64| ScheduleEntry {
            task: TaskId(tid),
            job: JobId(0),
            resource: ResourceId(0),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + 10),
        };
        let entries = [mk(0, 0), mk(1, 5)];
        let err = render(&cluster, &entries, &|_| TaskKind::Map, 40).unwrap_err();
        assert_eq!(err, ManagerError::ScheduleOverCapacity(TaskId(1)));
    }
}
