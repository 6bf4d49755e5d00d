package repro.perfbench

import repro.core.Erosion
import repro.core.VStoreConfigurator.Configuration
import repro.query.QueryEngine.{CascadeResult, Stage}
import repro.video.Formats._
import repro.video.Knobs._
import repro.video.{CodecModel, VideoProfile}

/** Output checks, one per op output. Each returns the failures it found
  * (empty when the output passes). Every check copies a gate that the
  * repository's tests or benches already apply, with the same tolerance.
  *
  * Not covered: the golden format that `Configuration.golden` recomputes is
  * absent from `cfg.sfs` under an ingest budget (a known program defect);
  * no check here reads `cfg.golden`.
  */
object Checks {

  /** R1: every consumer's SF is richer than or equal to its CF
    * (StorageConfigSpec "R1").
    */
  def r1(cfg: Configuration): Seq[String] =
    cfg.derived.flatMap { d =>
      val sf = cfg.sfOf(d.consumer)
      if (sf.fidelity.richerOrEqual(d.fidelity)) None
      else Some(s"R1: ${d.consumer} on $sf, CF ${d.fidelity}")
    }

  /** R2: retrieval at the CF's sampling rate is at least the capped demand,
    * min(consumption speed, RAW retrieval at the CF's own fidelity)
    * (StorageConfigSpec "R2").
    */
  def r2(cfg: Configuration): Seq[String] =
    cfg.derived.flatMap { d =>
      val sf = cfg.sfOf(d.consumer)
      val fps = d.fidelity.sampling.fps
      val ceiling = CodecModel.retrievalSpeed(StorageFormat(d.fidelity, Raw), fps)
      val demand = math.min(d.consumptionSpeed, ceiling)
      val retr = CodecModel.retrievalSpeed(sf, fps)
      if (retr >= demand - 1e-6) None
      else Some(f"R2: ${d.consumer} retrieval $retr%.3f < demand $demand%.3f on $sf")
    }

  /** Ingest budgets of at least one core are met (StorageConfigSpec
    * "ingest budget is respected when reachable", budgets 8..1 cores).
    */
  def ingestBudget(cfg: Configuration, budgetCores: Option[Double]): Seq[String] =
    budgetCores.filter(_ >= 1.0).toSeq.flatMap { b =>
      val used = CodecModel.ingestCores(cfg.sfs, VideoProfile.jackson)
      if (used <= b + 1e-6) None else Some(f"budget: $used%.3f cores > $b%.3f")
    }

  /** The richer-than tree's root is never eroded (Fig12ErosionBench). */
  def rootKept(plan: Erosion.Plan, root: StorageFormat): Seq[String] =
    plan.perAge.zipWithIndex.collect {
      case (del, age) if del.getOrElse(root, 0.0) != 0.0 =>
        s"root eroded at age ${age + 1}: ${del(root)}"
    }

  /** Deletions are cumulative: no format's deleted fraction shrinks with
    * age (ErosionSpec "deletions are cumulative").
    */
  def deletionsCumulative(plan: Erosion.Plan): Seq[String] =
    plan.perAge.zip(plan.perAge.drop(1)).zipWithIndex.flatMap { case ((young, old), i) =>
      (young.keySet ++ old.keySet).toSeq.collect {
        case sf if old.getOrElse(sf, 0.0) < young.getOrElse(sf, 0.0) - 1e-12 =>
          s"deletion of $sf shrinks from age ${i + 1} to ${i + 2}"
      }
    }

  /** The plan's lifespan total fits the budget unless the k-search hit
    * kMax (Fig12ErosionBench "every reachable budget is met").
    */
  def planWithinBudget(plan: Erosion.Plan, bytesPerDay: Map[StorageFormat, Double],
                       root: StorageFormat, budgetBytes: Double): Seq[String] = {
    val total = plan.totalBytes(bytesPerDay, root)
    if (plan.k >= 7.99 || total <= budgetBytes + 1e-6) Nil
    else Seq(f"plan total ${total / 1e12}%.4f TB > budget ${budgetBytes / 1e12}%.4f TB at k=${plan.k}")
  }

  /** Every stage's executed F1 is within 0.12 of the target
    * (Fig11EndToEndBench "Spark execution").
    */
  def stageF1(stages: Seq[Stage], res: CascadeResult, target: Double): Seq[String] =
    stages.flatMap { st =>
      res.perOp.get(st.op.name) match {
        case None => Some(s"${st.op.name}: no result")
        case Some(r) if r.f1 >= target - 0.12 => None
        case Some(r) => Some(f"${st.op.name}: F1 ${r.f1}%.4f < target $target - 0.12")
      }
    }

  /** Executed query speed within 0.4-2.5x of the analytic model
    * (Fig11EndToEndBench, QueryEngineSpec).
    */
  def speedRatio(executed: Double, analytic: Double): Seq[String] = {
    val r = executed / analytic
    if (r > 0.4 && r < 2.5) Nil else Seq(f"executed/analytic speed $r%.3f outside (0.4, 2.5)")
  }

  /** One catalog row per (segment, SF) (Fig11EndToEndBench ingest count). */
  def catalogRows(rows: Long, segments: Long, nSfs: Int): Seq[String] =
    if (rows == segments * nSfs) Nil
    else Seq(s"catalog: $rows rows for $segments segments x $nSfs SFs")

  /** Segments each SF still holds equal the plan's cumulative fraction:
    * `expected(sfId)` is segments x (1 - deleted fraction), rounded to whole
    * segments the way `SegmentStore.erode` rounds.
    */
  def survivors(actual: Map[Int, Long], expected: Map[Int, Long]): Seq[String] =
    (actual.keySet ++ expected.keySet).toSeq.sorted.collect {
      case id if actual.getOrElse(id, 0L) != expected.getOrElse(id, 0L) =>
        s"SF $id holds ${actual.getOrElse(id, 0L)} segments, plan says ${expected.getOrElse(id, 0L)}"
    }

  /** Stored RAW bytes equal the analytic size, bytes/s x seconds
    * (SegmentStoreSpec: RAW size is content-independent).
    */
  def rawBytes(actual: Map[Int, Double], expected: Map[Int, Double]): Seq[String] =
    expected.toSeq.sortBy(_._1).collect {
      case (id, want) if math.abs(actual.getOrElse(id, 0.0) - want) > 1e-9 * math.max(1.0, want) =>
        f"RAW SF $id stores ${actual.getOrElse(id, 0.0)}%.1f bytes, analytic $want%.1f"
    }

  /** Whole segments a SF keeps after eroding `fraction` of `n`. */
  def kept(n: Long, fraction: Double): Long = n - math.round(n * fraction)
}
