package repro.perfbench

import org.scalactic.Tolerance._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Erosion, StorageConfig, VStoreConfigurator}
import repro.query.QueryEngine
import repro.query.QueryEngine.{CascadeResult, OpResult}
import repro.video.Formats._
import repro.video.Knobs._
import repro.video.OperatorModel

/** Each output check passes the unchanged program's output and fires on
  * one known-bad output.
  */
class ChecksSpec extends AnyFunSuite {

  private lazy val cfg = VStoreConfigurator.derive()
  private def nodes = cfg.storage.nodes

  /** `cfg` with one CF moved to the node holding `to`. */
  private def moveCf(cf: ConsumptionFormat, to: StorageFormat) = {
    val moved = nodes.map { n =>
      if (n.sf == to) n.copy(cfs = n.cfs + cf) else n.copy(cfs = n.cfs - cf)
    }
    cfg.copy(storage = StorageConfig.Result(moved, cfg.storage.rounds))
  }

  test("R1 fires when a consumer's SF is poorer than its CF") {
    assert(Checks.r1(cfg).isEmpty)
    val poorest = nodes.minBy(_.sf.fidelity.pixelRate).sf
    val cf = cfg.uniqueCfs.find(c => !poorest.canServe(c)).get
    assert(Checks.r1(moveCf(cf, poorest)).nonEmpty)
  }

  test("R2 fires when a fast consumer's SF decodes too slowly") {
    assert(Checks.r2(cfg).isEmpty)
    val raw = nodes.find(_.sf.coding == Raw).get
    val slow = raw.copy(sf = raw.sf.copy(coding = Coding.slowestSmallest))
    val bad = cfg.copy(storage = StorageConfig.Result(nodes.map(n => if (n == raw) slow else n), 0))
    assert(Checks.r2(bad).nonEmpty)
  }

  test("the ingest budget check fires on budgets of 1 core or more only") {
    assert(Checks.ingestBudget(cfg, None).isEmpty)
    assert(Checks.ingestBudget(cfg, Some(1e6)).isEmpty)
    assert(Checks.ingestBudget(cfg, Some(1.0)).nonEmpty)
    assert(Checks.ingestBudget(cfg, Some(0.5)).isEmpty)
  }

  private val root = StorageFormat(Fidelity.full, Coding.slowestSmallest)
  private val child = StorageFormat(Fidelity.full.copy(sampling = FrameSampling.S1_30), Raw)
  private def plan(k: Double, ages: (Double, Double)*) =
    Erosion.Plan(k, 0.1, ages.map { case (r, c) => Map(root -> r, child -> c) }.toVector)

  test("the root check fires when the plan erodes the root") {
    assert(Checks.rootKept(plan(1, (0, 0), (0, 0.5)), root).isEmpty)
    assert(Checks.rootKept(plan(1, (0, 0), (0.05, 0.5)), root).nonEmpty)
  }

  test("the cumulative-deletion check fires when a deletion shrinks with age") {
    assert(Checks.deletionsCumulative(plan(1, (0, 0), (0, 0.5), (0, 0.5))).isEmpty)
    assert(Checks.deletionsCumulative(plan(1, (0, 0), (0, 0.5), (0, 0.45))).nonEmpty)
  }

  test("the plan budget check fires over budget unless k is kMax") {
    val perDay = Map(root -> 10.0, child -> 10.0)
    val p = plan(2, (0, 0), (0, 0.5)) // 20 + 15 bytes
    assert(Checks.planWithinBudget(p, perDay, root, 35).isEmpty)
    assert(Checks.planWithinBudget(p, perDay, root, 34).nonEmpty)
    assert(Checks.planWithinBudget(p.copy(k = 8.0), perDay, root, 34).isEmpty)
  }

  private lazy val stages =
    QueryEngine.stagesFor(OperatorModel.queryA, 0.9, c => cfg.cfOf(c), c => cfg.sfOf(c))
  private def result(f1: Double) = CascadeResult(
    stages.map(s => s.op.name -> OpResult(f1, 100, 90, 10, 0, 1.0, 1.0, 100.0)).toMap, 100.0)

  test("the F1 check fires when a stage misses its target by more than 0.12") {
    assert(Checks.stageF1(stages, result(0.79), 0.9).isEmpty)
    assert(Checks.stageF1(stages, result(0.77), 0.9).nonEmpty)
    assert(Checks.stageF1(stages, result(0.9).copy(perOp = Map.empty), 0.9).nonEmpty)
  }

  test("the speed check fires outside 0.4-2.5x of the analytic speed") {
    assert(Checks.speedRatio(100, 100).isEmpty)
    assert(Checks.speedRatio(39, 100).nonEmpty)
    assert(Checks.speedRatio(251, 100).nonEmpty)
  }

  test("the catalog check fires on a missing row") {
    assert(Checks.catalogRows(2000, 500, 4).isEmpty)
    assert(Checks.catalogRows(1999, 500, 4).nonEmpty)
  }

  test("the survivor check fires on an off-by-one survivor count") {
    val want = Map(0 -> 500L, 2 -> Checks.kept(500, 0.35))
    assert(want(2) == 325)
    assert(Checks.survivors(Map(0 -> 500L, 2 -> 325L), want).isEmpty)
    assert(Checks.survivors(Map(0 -> 500L, 2 -> 326L), want).nonEmpty)
    assert(Checks.survivors(Map(0 -> 500L, 1 -> 1L, 2 -> 325L), want).nonEmpty)
  }

  test("the RAW bytes check fires when stored bytes differ from the analytic size") {
    assert(Checks.rawBytes(Map(2 -> 1e9, 3 -> 5.0), Map(2 -> 1e9)).isEmpty)
    assert(Checks.rawBytes(Map(2 -> (1e9 + 8)), Map(2 -> 1e9)).nonEmpty)
  }
}

class ReportSpec extends AnyFunSuite {

  test("percentiles interpolate between order statistics") {
    val xs = (1 to 5).map(_.toDouble)
    assert(Report.median(xs) == 3.0)
    assert(Report.percentile(xs, 25) == 2.0)
    assert(Report.percentile(xs, 90) === 4.6 +- 1e-12)
  }

  test("the tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    val Some((p, v)) = Report.tail(xs)
    assert(xs.count(_ > v) >= 10 && p == 90)
    assert(Report.tail((1 to 10).map(_.toDouble)).isEmpty)
  }

  test("self times of an op's spans add up to its wall time") {
    val root = Span(1, 0, 1, "timed", "op", 0L, 100L)
    val a = Span(2, 1, 1, "timed", "store.ingest", 10L, 40L)
    val b = Span(3, 1, 1, "timed", "store.erode", 40L, 60L)
    val t = Trace(Vector(root, a, b), Map.empty, Map.empty)
    assert(t.selfMs(root) === (100 - 50) / 1e6 +- 1e-12)
    assert(Seq(root, a, b).map(t.selfMs).sum === root.durMs +- 1e-12)
    // overlapping children are covered once
    val c = Span(4, 1, 1, "timed", "store.erode", 50L, 70L)
    assert(Trace(Vector(root, a, b, c), Map.empty, Map.empty).selfMs(root) === (100 - 60) / 1e6 +- 1e-12)
  }

  test("accounting reports the op latency its spans do not cover") {
    val root = Span(1, 0, 1, "timed", "op", 0L, 100000L, wallMs = 0.125)
    val a = Span(2, 1, 1, "timed", "store.ingest", 10000L, 40000L)
    val acct = Layers.accounting(Trace(Vector(root, a), Map.empty, Map.empty)).toMap
    assert(acct("max_unaccounted_ms") === 0.025 +- 1e-12)
    assert(acct("op_time_outside_layers_ms") === 0.07 +- 1e-12)
  }

  test("a median difference needs enough samples on both sides") {
    val a = (1 to 10).map(_.toDouble + 2)
    val b = (1 to 10).map(_.toDouble)
    val Some((d, ci)) = Report.medianDiff(a, b, 10)
    assert(d === 2.0 +- 1e-12 && ci > 0)
    assert(Report.medianDiff(a, b.take(9), 10).isEmpty)
  }

  test("JSON keeps full precision and escapes strings") {
    assert(Report.json(Map("a\"b" -> 0.1234567890123)) == "{\"a\\\"b\": 0.1234567890123}")
  }
}

class BenchmarkFileSpec extends AnyFunSuite {

  test("BENCHMARK.json lists exactly the per-layer metrics a traced run reports") {
    val src = scala.io.Source.fromFile(new java.io.File("../BENCHMARK.json"), "UTF-8")
    val text = try src.mkString finally src.close()
    val perLayer = text.substring(text.indexOf("\"per_layer\""))
    val listed = "\"name\": \"([^\"]+)\"".r.findAllMatchIn(perLayer).map(_.group(1)).toSet
    assert(listed === Main.perLayerNames(4).toSet)
  }
}
