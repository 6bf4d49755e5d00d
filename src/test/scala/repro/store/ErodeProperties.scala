package repro.store

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import repro.store.SegmentStore.StoredSegment

/** `erode` on random catalogs (1–3 videos, gaps in segId, 1–4 SFs, each SF
  * holding its own subset of segments) equals the reference rule: drop the
  * round(n * f) smallest of the n distinct segIds the SF holds across every
  * video, in every video, and leave every other SF's rows untouched. So does
  * eroding the eroded catalog again, and `bytesByFormat` of an eroded catalog
  * equals the reference's per-SF sums.
  */
object ErodeProperties extends Properties("Erode") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(60)

  private val genCatalog: Gen[(Seq[StoredSegment], Int)] = for {
    nVideos <- Gen.choose(1, 3)
    nSfs <- Gen.choose(1, 4)
    held <- Gen.listOfN(nVideos * nSfs, Gen.someOf(0L to 40L))
  } yield {
    val cells = for (v <- 0 until nVideos; sf <- 0 until nSfs) yield (v, sf)
    val rows = cells.zip(held).flatMap { case ((v, sf), segs) =>
      segs.toSeq.map(seg => StoredSegment(s"v$v", seg, sf, 1000.0 * seg + sf))
    }
    (rows, nSfs)
  }

  private val genFraction: Gen[Double] =
    Gen.frequency(1 -> Gen.const(0.0), 1 -> Gen.const(1.0), 6 -> Gen.choose(0.0, 1.0))

  private def reference(rows: Seq[StoredSegment], sfId: Int, f: Double): Seq[StoredSegment] = {
    val ids = rows.filter(_.sfId == sfId).map(_.segId).distinct.sorted
    val doomed = ids.take(math.round(ids.length * f).toInt).toSet
    rows.filterNot(r => r.sfId == sfId && doomed.contains(r.segId))
  }

  private val order = (s: StoredSegment) => (s.video, s.sfId, s.segId)

  property("erode drops the round(n*f) oldest distinct segIds of one SF, in every video") =
    Prop.forAll(genCatalog, genFraction) { case ((rows, nSfs), f) =>
      Prop.forAll(Gen.choose(0, nSfs - 1)) { sfId =>
        implicit val spark = SparkSpec.shared
        import spark.implicits._
        val got = SegmentStore.erode(spark.createDataset(rows), sfId, f).collect().toSeq.sortBy(order)
        val want = reference(rows, sfId, f).sortBy(order)
        (got == want) :| s"sf $sfId, f $f: kept ${got.size} rows, reference ${want.size}"
      }
    }

  property("eroding an eroded catalog equals the reference rule applied twice") =
    Prop.forAll(genCatalog, genFraction, genFraction) { case ((rows, nSfs), f, g) =>
      Prop.forAll(Gen.choose(0, nSfs - 1), Gen.choose(0, nSfs - 1)) { (a, b) =>
        implicit val spark = SparkSpec.shared
        import spark.implicits._
        val once = SegmentStore.erode(spark.createDataset(rows), a, f)
        val got = SegmentStore.erode(once, b, g).collect().toSeq.sortBy(order)
        val want = reference(reference(rows, a, f), b, g).sortBy(order)
        (got == want) :| s"sf $a at $f, then sf $b at $g: kept ${got.size} rows, reference ${want.size}"
      }
    }

  property("bytesByFormat of an eroded catalog equals a driver-side sum") =
    Prop.forAll(genCatalog, genFraction) { case ((rows, nSfs), f) =>
      Prop.forAll(Gen.choose(0, nSfs - 1)) { sfId =>
        implicit val spark = SparkSpec.shared
        import spark.implicits._
        val got = SegmentStore.bytesByFormat(SegmentStore.erode(spark.createDataset(rows), sfId, f))
        val want = reference(rows, sfId, f).groupMapReduce(_.sfId)(_.bytes)(_ + _)
        (got == want) :| s"sf $sfId, f $f: totals $got, reference $want"
      }
    }
}
