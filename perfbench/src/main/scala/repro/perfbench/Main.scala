package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import Report.{json, median}

/** The layered benchmark: one workload, one seed, one closed-loop client.
  *
  *   Main --workload <configure|query|ingest_erode> --seed <n> --seconds <s>
  *        --trace <0|1> --out <dir> [--commit <id>] [--source <hash>]
  *
  * Phases: set-up (`setup_s` is JVM start to the end of set-up), warm-up
  * ops, then ops until `--seconds` have passed (a traced run goes on until
  * it has [[MinOverheadOps]] traced and untraced ops, up to three times
  * `--seconds`). Each op's outputs are checked after its latency is taken;
  * a failed check marks the op failed and the run goes on. The last stdout
  * line is the JSON result; `--trace 1` reports per-layer metrics from spans
  * instead of end-to-end ones. A full report and the spans are written
  * under `--out`.
  */
object Main {

  /** Traced and untraced ops a traced run needs before it reports the
    * difference of their median latencies as tracing overhead.
    */
  val MinOverheadOps = 10

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: File, commit: String, source: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      new File(m.getOrElse("out", ".")), m.getOrElse("commit", "unknown"), m.getOrElse("source", "unknown"))
  }

  /** E2E metric definitions: (name, unit) in output order. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "op_p50_ms" -> "ms", "ops_per_s" -> "1/s", "cpu_ms_per_op" -> "ms",
    "heap_live_mb" -> "MB")

  /** Per-layer metrics gated in BENCHMARK.json, in output order. */
  def perLayerNames(cores: Int): Seq[String] =
    Layers.metrics(cores).filter(_.gated).map(_.name) ++ Seq("jvm.gc_ms", "jvm.gc_count")

  private def say(tag: String, v: Any): Unit = println(s"[perfbench] $tag ${json(v)}")

  private def cpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      .getProcessCpuTime

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cores = Runtime.getRuntime.availableProcessors
    val partitions = sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64")
    o.out.mkdirs()
    // The session settings of the test suites' shared session, at one task
    // thread per core.
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", partitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(o.out, "spark-local").getAbsolutePath)
      .getOrCreate()
    val sparkReadyS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val env = mutable.LinkedHashMap[String, Any](
      "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "commit" -> o.commit, "source_sha256" -> o.source, "nproc" -> cores,
      "spark_master" -> spark.sparkContext.master, "spark_version" -> spark.version,
      "shuffle_partitions" -> partitions,
      "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
      "java" -> System.getProperty("java.version"))
    say("env", env)
    try run(o, spark, cores, jvmStartMs, sparkReadyS, env) finally spark.stop()
  }

  private def run(o: Opts, spark: SparkSession, cores: Int, jvmStartMs: Long, sparkReadyS: Double,
                  env: mutable.LinkedHashMap[String, Any]): Unit = {
    val tracer = new Tracer(o.trace, spark.sparkContext)
    val w = Workload(o.workload, spark, tracer, o.seed)
    var opId = 0L
    def timed[A](body: => A): (A, Double) = { opId += 1; tracer.op(opId)(body) }

    tracer.setPhase("setup")
    val (setupFailures, setupMs) = timed(w.setup())
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    say("setup", Map("spark_ready_s" -> sparkReadyS, "setup_ms" -> setupMs, "failures" -> setupFailures))

    final case class Done(ms: Double, failures: Seq[String], videoSec: Double, traced: Boolean)
    def runOp(i: Long): Done = {
      val traced = tracer.tracing
      val t0 = System.nanoTime()
      try {
        val (res, ms) = timed(w.op(i))
        Done(ms, res.check(), res.videoSec, traced)
      } catch {
        case NonFatal(e) => Done((System.nanoTime() - t0) / 1e6, Seq(s"op threw $e"), 0.0, traced)
      }
    }

    tracer.setPhase("warmup")
    val warm = (0 until w.warmupOps).map(i => runOp(i.toLong))

    tracer.setPhase("timed")
    val done = mutable.Buffer.empty[Done]
    val cpu0 = cpuNs()
    val t0 = System.nanoTime()
    val deadline = t0 + (o.seconds * 1e9).toLong
    val traceDeadline = t0 + (3 * o.seconds * 1e9).toLong
    def more(now: Long): Boolean =
      now < deadline || (o.trace && now < traceDeadline &&
        math.min(done.count(_.traced), done.count(!_.traced)) < MinOverheadOps)
    var i = w.warmupOps.toLong
    while (more(System.nanoTime())) {
      // A traced run alternates traced and untraced ops, so the difference
      // of their medians is the tracing overhead on the same op mix.
      tracer.setActive(i % 2 == 0)
      done += runOp(i)
      i += 1
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val cpuMs = (cpuNs() - cpu0) / 1e6
    tracer.setActive(false)
    tracer.setPhase("end")
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    val n = done.size
    val failed = done.count(_.failures.nonEmpty)
    val lat = done.map(_.ms).toSeq
    val failures = (setupFailures ++ warm.flatMap(_.failures) ++ done.flatMap(_.failures)).distinct
    failures.take(20).foreach(f => Console.err.println(s"[perfbench] check failed: $f"))
    val correct = failures.isEmpty

    val e2e = mutable.LinkedHashMap[String, Double](
      "setup_s" -> setupS, "op_p50_ms" -> median(lat), "ops_per_s" -> n / wallS,
      "cpu_ms_per_op" -> cpuMs / n, "heap_live_mb" -> heapMb)
    val tail = Report.tail(lat)
    val extra = mutable.LinkedHashMap[String, Any](
      "ops" -> n, "timed_wall_s" -> wallS,
      "op_tail_ms" -> tail.map(_._2), "op_tail_percentile" -> tail.map(_._1),
      "video_s_per_s" -> done.map(_.videoSec).sum / wallS,
      "configs_per_s" -> (if (o.workload == "configure") n / wallS else 0.0),
      "fail_ratio" -> failed.toDouble / n, "warmup_ops" -> warm.size,
      "warmup_op_p50_ms" -> median(warm.map(_.ms)))
    say("e2e", e2e ++ extra)
    val sim = mutable.LinkedHashMap(w.fingerprint(): _*)
    say("sim", sim)

    val report = mutable.LinkedHashMap[String, Any]("env" -> env, "correct" -> correct,
      "attempted" -> n, "failed" -> failed, "failures" -> failures.take(50),
      "setup_ms" -> setupMs, "warmup_op_ms" -> warm.map(_.ms), "op_ms" -> lat, "e2e" -> e2e, "extra" -> extra, "sim" -> sim)

    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) EndToEnd.map { case (k, u) => (k, e2e(k), u) }
      else {
        val t = tracer.finish()
        val layers = Layers.measure(t, cores)
        val (tracedLat, plainLat) = done.partition(_.traced)
        val overhead = Report.medianDiff(tracedLat.map(_.ms).toSeq, plainLat.map(_.ms).toSeq, MinOverheadOps)
        val jvm = Layers.jvm(t)
        val (jobs, coreSpans) = Layers.separation(t)
        val separation = mutable.LinkedHashMap[String, Any](
          "timed_spark_jobs" -> jobs, "timed_core_spans" -> coreSpans,
          "holds" -> (if (o.workload == "configure") jobs == 0 else coreSpans == 0))
        val rows: Seq[(String, Double, String, Map[String, Any])] =
          layers.map { case (m, v, phase, k) => (m.name, v, m.unit, Map[String, Any]("phase" -> phase, "ops" -> k)) } ++
            jvm.map { case (k, v) => (k, v, if (k.endsWith("ms")) "ms" else "count", Map.empty[String, Any]) }
        val all = mutable.LinkedHashMap(rows.map { case (k, v, u, more) =>
          k -> (mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u) ++ more) }: _*)
        val acct = mutable.LinkedHashMap[String, Any](Layers.accounting(t): _*) ++ Seq(
          "traced_ops" -> tracedLat.size, "untraced_ops" -> plainLat.size,
          // null when either side has fewer than MinOverheadOps ops
          "traced_minus_untraced_p50_ms" -> overhead.map(_._1),
          "traced_minus_untraced_ci95_ms" -> overhead.map(_._2))
        say("layers", all)
        say("accounting", acct)
        say("separation", separation)
        report ++= Seq("layers" -> all, "accounting" -> acct,
          "separation" -> separation)
        writeSpans(new File(o.out, s"spans-${o.workload}-seed${o.seed}.jsonl"), t)
        val gated = perLayerNames(cores).toSet
        rows.collect { case (k, v, u, _) if gated(k) => (k, v, u) }
      }

    write(new File(o.out, s"result-${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"), json(report))
    println(json(mutable.LinkedHashMap[String, Any]("correct" -> correct, "attempted" -> n, "failed" -> failed,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (k, v, u) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) }: _*))))
  }

  private def write(f: File, s: String): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try pw.println(s) finally pw.close()
  }

  private def writeSpans(f: File, t: Trace): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try t.spans.foreach { s =>
      val sp = t.spark.get(s.id).map(c => Map("jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks,
        "run_ms" -> c.runMs, "cpu_ms" -> c.cpuMs, "shuffle_write_bytes" -> c.shuffleWriteBytes,
        "shuffle_read_bytes" -> c.shuffleReadBytes, "failed_tasks" -> c.failedTasks))
      pw.println(json(mutable.LinkedHashMap[String, Any]("id" -> s.id, "parent" -> s.parent, "op" -> s.opId,
        "phase" -> s.phase, "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs,
        "self_ms" -> t.selfMs(s), "counts" -> s.counts, "spark" -> sp)))
    } finally pw.close()
  }
}
