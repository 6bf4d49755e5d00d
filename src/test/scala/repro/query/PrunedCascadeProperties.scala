package repro.query

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, max, min, spark_partition_id}
import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.core.VStoreConfigurator
import repro.video.{OperatorModel, SynthVideo, VideoProfile}

/** A cascade over a window `lo <= segId < hi` of a cached table equals
  * `QueryEngineSpec`'s driver-side reference on its first run, which learns
  * the partitions that hold the window's rows, and on the two runs after
  * it, which run only those partitions. The learned partitions are those
  * `spark_partition_id()` finds. Tables are laid out by
  * `repartitionByRange(n, segId)` and by `repartition(n)`, n in {1, 3, 4, 7};
  * besides random windows, a window may be the segments of the middle or
  * the last partition of a range layout, so pruning is checked away from
  * partition 0 too.
  */
object PrunedCascadeProperties extends Properties("PrunedCascade") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(36).withInitialSeed(Seed(1810017940L))

  private val video = VideoProfile.dashcam
  /** Segments of each table: 160 s. */
  private val Segments = 20

  /** A cached table laid out in `n` partitions by segment range, or round-robin. */
  private final class Layout(val n: Int, val byRange: Boolean) {
    override def toString: String = if (byRange) s"repartitionByRange($n, segId)" else s"repartition($n)"
    lazy val table: DataFrame = {
      val frames = SynthVideo.frames(SparkSpec.shared, video, durationSec = 8 * Segments)
      (if (byRange) frames.repartitionByRange(n, col("segId")) else frames.repartition(n)).cache()
    }
  }
  private val layouts = for (n <- Seq(1, 3, 4, 7); byRange <- Seq(true, false)) yield new Layout(n, byRange)

  private sealed trait Window
  private final case class Segs(lo: Int, hi: Int) extends Window
  /** The segments of the middle or the last partition that holds rows. */
  private final case class PartitionOf(last: Boolean) extends Window

  private val genCase: Gen[(Layout, Window)] = Gen.frequency(
    2 -> (for {
      layout <- Gen.oneOf(layouts)
      lo <- Gen.choose(0, Segments - 1)
      hi <- Gen.choose(lo + 1, Segments)
    } yield (layout, Segs(lo, hi))),
    1 -> (for {
      layout <- Gen.oneOf(layouts.filter(l => l.byRange && l.n > 1))
      last <- Gen.oneOf(false, true)
    } yield (layout, PartitionOf(last))))

  private lazy val stages = {
    val cfg = VStoreConfigurator.derive()
    QueryEngine.stagesFor(OperatorModel.queryB, 0.8, c => cfg.cfOf(c), c => cfg.sfOf(c))
  }

  property("a window's learning run and pruned re-runs equal the reference on every layout") =
    Prop.forAllNoShrink(genCase) { case (layout, w) =>
      val spark = SparkSpec.shared
      import spark.implicits._
      val table = layout.table
      // each partition holding rows, with its segment range, in partition order
      lazy val spans = table.groupBy(spark_partition_id() as "p").agg(min("segId"), max("segId"))
        .as[(Int, Long, Long)].collect().sortBy(_._1).toSeq
      val (lo, hi, onlyIn) = w match {
        case Segs(lo, hi) => (lo, hi, None)
        case PartitionOf(last) =>
          val (p, first, end) = if (last) spans.last else spans(spans.length / 2)
          (first.toInt, end.toInt + 1, Some(p))
      }
      def window = table.filter(col("segId") >= lo && col("segId") < hi)
      val reference = QueryEngineSpec.reference(window.as[repro.Frame].collect().toSeq, video, stages)
      val holding = window.select(spark_partition_id()).distinct().as[Int].collect().sorted.toSeq
      val wrong = (1 to 3).flatMap { run =>
        QueryEngineSpec.mismatches(QueryEngine.runCascade(spark, window, video, stages), reference)
          .map(m => s"run $run: $m")
      }
      val learned = QueryEngine.plannedRows(window.select("frame", "isEvent")).partitions
      val problems = wrong ++
        (if (learned == holding) Nil else Seq(s"learned partitions $learned, rows in $holding")) ++
        onlyIn.filter(p => holding != Seq(p)).map(p => s"rows in $holding, not only in partition $p")
      problems.isEmpty :| s"$layout, segments [$lo, $hi): ${problems.mkString("; ")}"
    }
}
