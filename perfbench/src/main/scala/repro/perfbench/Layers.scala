package repro.perfbench

/** Per-layer metrics of a traced run, derived from its spans.
  *
  * A metric reads one value per op from the spans of that op. Its reported
  * value is the median over the timed phase's traced ops that called the
  * layer; for a layer the timed phase never calls, its value in the set-up
  * (e.g. `video.frames` in `query`); 0 when the run never called it. `jvm.*` is a mean per timed op, since collections
  * are too rare for a per-op median.
  */
object Layers {

  /** `gated` metrics are listed in BENCHMARK.json; the others describe a
    * workload's input (e.g. consumers per op) and no optimisation moves them.
    */
  final case class Metric(name: String, unit: String, gated: Boolean,
                          value: (Trace, Vector[Span]) => Option[Double])

  private def named(spans: Vector[Span], name: String): Option[Vector[Span]] =
    Some(spans.filter(_.name == name)).filter(_.nonEmpty)

  private def time(span: String) = (_: Trace, op: Vector[Span]) => named(op, span).map(_.map(_.durMs).sum)

  private def count(span: String, key: String) = (_: Trace, op: Vector[Span]) =>
    named(op, span).map(_.map(_.counts.getOrElse(key, 0.0)).sum)

  private def spark(span: String, f: SparkCounters => Double) = (t: Trace, op: Vector[Span]) =>
    named(op, span).map(_.map(s => t.spark.get(s.id).map(f).getOrElse(0.0)).sum)

  /** Share of the span's task slots (wall x cores) not running tasks. */
  private def idle(span: String, cores: Int) = (t: Trace, op: Vector[Span]) =>
    named(op, span).map { ss =>
      val run = ss.map(s => t.spark.get(s.id).map(_.runMs).getOrElse(0.0)).sum
      1.0 - run / (ss.map(_.durMs).sum * cores)
    }

  val SparkSpans: Seq[String] =
    Seq("store.ingest", "store.erode", "store.bytes_by_format", "query.cascade", "video.frames")

  def metrics(cores: Int): Seq[Metric] = Seq(
    Metric("core.cf_derive_ms", "ms", true, time("core.cf_derive")),
    Metric("core.sf_derive_ms", "ms", true, time("core.sf_derive")),
    Metric("core.erosion_inputs_ms", "ms", true, time("core.erosion_inputs")),
    Metric("core.erosion_plan_ms", "ms", true, time("core.erosion_plan")),
    Metric("core.consumers", "count", false, count("core.cf_derive", "consumers")),
    Metric("core.profile_op_runs", "count", true, count("core.cf_derive", "profile_op_runs")),
    Metric("core.profile_sf_runs", "count", true, count("core.sf_derive", "profile_sf_runs")),
    Metric("core.profile_sf_examined", "count", true, count("core.sf_derive", "profile_sf_examined")),
    Metric("core.profile_sf_hit_ratio", "ratio", true, (t, op) =>
      for (r <- count("core.sf_derive", "profile_sf_runs")(t, op);
           e <- count("core.sf_derive", "profile_sf_examined")(t, op) if e > 0) yield 1.0 - r / e),
    Metric("core.coalesce_rounds", "count", true, count("core.sf_derive", "coalesce_rounds")),
    Metric("query.cascade_ms", "ms", true, time("query.cascade")),
    Metric("query.cascade_stages", "count", false, count("query.cascade", "stages")),
    Metric("query.frames_sampled", "count", true, count("query.cascade", "frames_sampled")),
    Metric("query.window_video_s", "video-s", false, count("query.cascade", "window_video_s")),
    Metric("store.ingest_ms", "ms", true, time("store.ingest")),
    Metric("store.ingest_segments", "count", false, count("store.ingest", "segments")),
    Metric("store.ingest_video_s", "video-s", false, count("store.ingest", "video_s")),
    Metric("store.erode_ms", "ms", true, time("store.erode")),
    Metric("store.erode_calls", "count", false, count("store.erode", "calls")),
    Metric("store.erode_segments_deleted", "count", false, count("store.erode", "segments_deleted")),
    Metric("store.bytes_by_format_ms", "ms", true, time("store.bytes_by_format")),
    Metric("video.frames_ms", "ms", true, time("video.frames")),
  ) ++ SparkSpans.flatMap { s => Seq(
    Metric(s"$s.spark_jobs", "count", true, spark(s, _.jobs.toDouble)),
    Metric(s"$s.spark_stages", "count", true, spark(s, _.stages.toDouble)),
    Metric(s"$s.spark_tasks", "count", true, spark(s, _.tasks.toDouble)),
    Metric(s"$s.spark_run_ms", "ms", true, spark(s, _.runMs)),
    Metric(s"$s.spark_cpu_ms", "ms", true, spark(s, _.cpuMs)),
    Metric(s"$s.spark_shuffle_write_bytes", "bytes", true, spark(s, _.shuffleWriteBytes)),
    Metric(s"$s.spark_shuffle_read_bytes", "bytes", true, spark(s, _.shuffleReadBytes)),
    Metric(s"$s.spark_failed_tasks", "count", true, spark(s, _.failedTasks.toDouble)),
    Metric(s"$s.spark_slot_idle_ratio", "ratio", true, idle(s, cores)),
  )}

  /** Per-layer values of a traced run, by metric name, plus the phase each
    * was read from and the number of ops behind it.
    */
  def measure(t: Trace, cores: Int): Seq[(Metric, Double, String, Int)] = {
    def ops(phase: String) = t.roots(phase).map(r => t.inOp(r.opId))
    val timed = ops("timed")
    val setup = ops("setup")
    metrics(cores).map { m =>
      val fromTimed = timed.flatMap(m.value(t, _))
      lazy val fromSetup = setup.flatMap(m.value(t, _))
      if (fromTimed.nonEmpty) (m, Report.median(fromTimed), "timed", fromTimed.size)
      else if (fromSetup.nonEmpty) (m, Report.median(fromSetup), "setup", fromSetup.size)
      else (m, 0.0, "none", 0)
    }
  }

  /** Mean GC time and count per traced timed op. */
  def jvm(t: Trace): Seq[(String, Double)] = {
    val roots = t.roots("timed")
    def mean(k: String) = if (roots.isEmpty) 0.0 else roots.map(_.counts.getOrElse(k, 0.0)).sum / roots.size
    Seq("jvm.gc_ms" -> mean("gc_ms"), "jvm.gc_count" -> mean("gc_count"))
  }

  /** Self-time accounting of the traced timed ops: the largest part of an
    * op's reported latency that its spans' self times do not cover (the
    * tracer's work outside the root span), the median time an op spends
    * outside every layer call (the root span's self time), and the median
    * time the tracer's own bookkeeping adds to an op.
    */
  def accounting(t: Trace): Seq[(String, Double)] = {
    val roots = t.roots("timed")
    val gaps = roots.map(r => r.wallMs - t.inOp(r.opId).map(t.selfMs).sum)
    Seq("max_unaccounted_ms" -> (if (gaps.isEmpty) 0.0 else gaps.max),
      "op_time_outside_layers_ms" -> Report.median(roots.map(t.selfMs)),
      "tracer_bookkeeping_ms" -> Report.median(roots.map(_.counts.getOrElse("tracer_ms", 0.0))))
  }

  /** Timed-phase separation: Spark jobs submitted, and `core.*` spans. */
  def separation(t: Trace): (Long, Int) =
    (t.jobsByPhase.getOrElse("timed", 0L), t.spans.count(s => s.phase == "timed" && s.name.startsWith("core.")))
}
