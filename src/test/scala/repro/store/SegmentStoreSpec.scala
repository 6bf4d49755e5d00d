package repro.store

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.{Frame, SparkSpec}
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}
import repro.store.SegmentStore.StoredSegment

class SegmentStoreSpec extends SparkSpec {

  private val video = VideoProfile.jackson
  private val sfs = Seq(
    StorageFormat(Fidelity.full, Coding.slowestSmallest),
    StorageFormat(Fidelity.full.copy(sampling = FrameSampling.S1_30),
      Encoded(SpeedStep.Fast, KeyframeInterval(10))),
    StorageFormat(Fidelity(ImageQuality.Best, CropFactor.C100,
      Resolution.ten.find(_.height == 200).get, FrameSampling.S1), Raw),
  )

  private lazy val frames = SynthVideo.frames(spark, video, durationSec = 40).cache()
  private lazy val stored = SegmentStore.ingest(spark, frames, sfs, video).cache()

  test("ingest emits one catalog row per (segment, format)") {
    assert(stored.count() === 5L * sfs.size)
  }

  test("every segment is transcoded into every format") {
    val bySeg = stored.groupBy("segId").count().collect()
    assert(bySeg.forall(_.getLong(1) === sfs.size.toLong))
  }

  test("per-segment sizes are near the codec model's per-second size") {
    import spark.implicits._
    sfs.zipWithIndex.foreach { case (sf, i) =>
      val perSec = CodecModel.storedBytesPerSec(sf, video)
      val avgBytes = stored.filter(_.sfId == i).map(_.bytes).collect()
      avgBytes.foreach { b =>
        assert(b > perSec * 8 * 0.2 && b < perSec * 8 * 5.0,
          s"sf=$sf bytes=$b model=${perSec * 8}")
      }
      val mean = avgBytes.sum / avgBytes.length
      assert(math.abs(mean / (perSec * 8) - 1.0) < 0.35, s"sf=$sf mean=$mean")
    }
  }

  test("RAW segment size is content-independent") {
    import spark.implicits._
    val rawIdx = sfs.indexWhere(_.coding.isRaw)
    val sizes = stored.filter(_.sfId == rawIdx).map(_.bytes).collect().toSet
    assert(sizes.size === 1, s"raw sizes vary: $sizes")
  }

  test("encoded segment size varies with per-segment motion") {
    import spark.implicits._
    val sizes = stored.filter(_.sfId == 0).map(_.bytes).collect().toSet
    assert(sizes.size > 1, "encoded sizes should track per-segment motion")
  }

  test("aggregate size per format matches model within tolerance") {
    val totals = SegmentStore.bytesByFormat(stored)
    sfs.zipWithIndex.foreach { case (sf, i) =>
      val model = CodecModel.storedBytesPerSec(sf, video) * 40
      assert(math.abs(totals(i) / model - 1.0) < 0.35, s"sf=$sf got=${totals(i)} model=$model")
    }
  }

  test("encode CPU seconds track model ingest cores x duration") {
    val cpu = SegmentStore.encodeCpuByFormat(stored)
    sfs.zipWithIndex.foreach { case (sf, i) =>
      val model = CodecModel.ingestCores(sf, video) * 40
      assert(math.abs(cpu(i) / model - 1.0) < 0.35, s"sf=$sf got=${cpu(i)} model=$model")
    }
  }

  test("dashcam ingest stores more bytes than jackson for encoded formats") {
    val d = SynthVideo.frames(spark, VideoProfile.dashcam, 16)
    val j = SynthVideo.frames(spark, VideoProfile.jackson, 16)
    val sd = SegmentStore.bytesByFormat(SegmentStore.ingest(spark, d, sfs.take(1), VideoProfile.dashcam))
    val sj = SegmentStore.bytesByFormat(SegmentStore.ingest(spark, j, sfs.take(1), VideoProfile.jackson))
    assert(sd(0) > 2 * sj(0), s"dashcam=${sd(0)} jackson=${sj(0)}")
  }

  test("erode removes the requested fraction of a format's segments") {
    implicit val s = spark
    val after = SegmentStore.erode(stored, sfId = 0, deleteFraction = 0.4)
    assert(after.filter(_.sfId == 0).count() === 3) // 5 - 2
    assert(after.filter(_.sfId == 1).count() === 5) // untouched
  }

  test("erode deletes oldest segments first") {
    implicit val s = spark
    import spark.implicits._
    val after = SegmentStore.erode(stored, sfId = 0, deleteFraction = 0.4)
    val kept = after.filter(_.sfId == 0).map(_.segId).collect().sorted
    assert(kept.toSeq === Seq(2L, 3L, 4L))
  }

  test("erode with fraction 0 and 1 are no-op and full delete") {
    implicit val s = spark
    assert(SegmentStore.erode(stored, 0, 0.0).filter(_.sfId == 0).count() === 5)
    assert(SegmentStore.erode(stored, 0, 1.0).filter(_.sfId == 0).count() === 0)
  }

  test("catalog totals match DuckDB oracle aggregation") {
    val agg = stored.toDF().groupBy("sfId")
      .agg(count(lit(1)) as "n", round(sum("bytes"), 3) as "bytes")
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT sfId, count(1) AS n, round(sum(CAST(bytes AS DOUBLE)), 3) AS bytes " +
        "FROM stored GROUP BY sfId",
      "stored" -> stored.toDF().select(col("sfId"), col("bytes")))
  }

  /** The catalog `ingest` must produce, computed on the driver from the
    * collected frames grouped by (video, segId).
    */
  private def referenceIngest(frames: DataFrame, sfs: Seq[StorageFormat],
                              video: VideoProfile): Seq[StoredSegment] = {
    import spark.implicits._
    frames.as[Frame].collect().toSeq.groupBy(f => (f.video, f.segId)).toSeq.flatMap {
      case ((v, seg), fs) =>
        val segSec = fs.size.toDouble / SynthVideo.Fps
        val rel = math.max(0.25, math.min(4.0, fs.map(_.motion).sum / fs.size / video.motionFactor))
        sfs.zipWithIndex.map { case (sf, i) =>
          val scale = if (sf.coding.isRaw) 1.0 else rel
          StoredSegment(v, seg, i, CodecModel.storedBytesPerSec(sf, video) * segSec * scale,
            CodecModel.ingestCores(sf, video) * scale * segSec, fs.size)
        }
    }
  }

  test("ingest equals a driver-side reference, also with segments split across partitions") {
    val window = SynthVideo.frames(spark, video, durationSec = 400).cache()
    val cases = Seq(
      "400 s window" -> window,
      "400 s window, repartition(7)" -> window.repartition(7),
      // every row starts a new run, and each segment arrives in 240 runs
      "400 s window, one partition sorted by frameIdx" ->
        window.coalesce(1).sortWithinPartitions("frameIdx"),
      "two-video union" -> SynthVideo.frames(spark, Seq(video, VideoProfile.dashcam), 400))
    for ((where, table) <- cases) {
      val rows = SegmentStore.ingest(spark, table, sfs, video).collect()
      val got = rows.map(s => (s.video, s.segId, s.sfId) -> s).toMap
      val want = referenceIngest(table, sfs, video).map(s => (s.video, s.segId, s.sfId) -> s).toMap
      assert(rows.length === want.size, s"$where: one row per (video, segment, format)")
      assert(got.keySet === want.keySet, where)
      def rel(a: Double, b: Double) = math.abs(a - b) / math.max(math.abs(b), 1e-300)
      want.foreach { case (k, w) =>
        val g = got(k)
        assert(g.nFrames === w.nFrames, s"$where $k nFrames")
        assert(rel(g.bytes, w.bytes) < 1e-9, s"$where $k bytes ${g.bytes} vs ${w.bytes}")
        assert(rel(g.encodeCpuSec, w.encodeCpuSec) < 1e-9, s"$where $k encodeCpuSec")
      }
    }
    window.unpersist()
  }

  test("ingest is one job with no shuffle; erode runs no job on a local catalog") {
    implicit val s = spark
    frames.count() // materialise the cache outside the measured window
    stored.count()
    assert(sparkActivity(SegmentStore.ingest(spark, frames, sfs, video)) === ((1, 0L)))
    // not `stored`'s rows: a plan equal to a cached one reads the cache
    val local = SegmentStore.ingest(spark, SynthVideo.frames(spark, VideoProfile.dashcam, 40),
      sfs, VideoProfile.dashcam)
    assert(sparkActivity(SegmentStore.erode(local, 0, 0.4).collect())._1 === 0)
    assert(sparkActivity(SegmentStore.erode(stored, 0, 0.4).collect())._2 === 0L)
    for (sums <- Seq[Dataset[StoredSegment] => Map[Int, Double]](
           SegmentStore.bytesByFormat, SegmentStore.encodeCpuByFormat)) {
      assert(sparkActivity(sums(local))._1 === 0)
      assert(sparkActivity(sums(stored))._2 === 0L)
    }
  }

  test("per-format sums equal a driver-side sum, on a local and a cached catalog") {
    val local = SegmentStore.ingest(spark, SynthVideo.frames(spark, VideoProfile.dashcam, 40),
      sfs, VideoProfile.dashcam)
    def rel(a: Double, b: Double) = math.abs(a - b) / math.max(math.abs(b), 1e-300)
    for ((where, catalog) <- Seq("local" -> local, "cached" -> stored)) {
      val rows = catalog.collect()
      def check(what: String, got: Map[Int, Double], value: StoredSegment => Double): Unit = {
        val want = rows.groupMapReduce(_.sfId)(value)(_ + _)
        assert(got.keySet === want.keySet, s"$where $what")
        want.foreach { case (id, w) => assert(rel(got(id), w) < 1e-9, s"$where $what sf$id") }
      }
      check("bytes", SegmentStore.bytesByFormat(catalog), _.bytes)
      check("encodeCpuSec", SegmentStore.encodeCpuByFormat(catalog), _.encodeCpuSec)
    }
  }

  test("ingest's task function is a named class, not a lambda") {
    // a lambda sends Spark's closure cleaner through class bytecode on every
    // call; results would not change
    val cls = new SegmentPartials().getClass
    assert(!cls.isSynthetic, cls.getName)
    assert(!cls.getName.contains("$anonfun$") && !cls.getName.contains("$$Lambda"), cls.getName)
  }

  test("degenerate input fails with named errors") {
    implicit val s = spark
    for (f <- Seq(-0.1, 1.5, Double.NaN)) {
      val e = intercept[IllegalArgumentException](SegmentStore.erode(stored, 0, f))
      assert(e.getMessage.contains("deleteFraction"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException](SegmentStore.ingest(spark, frames, Nil, video))
    assert(e.getMessage.contains("no storage formats"), e.getMessage)
  }

  test("an empty frame table ingests to an empty catalog") {
    assert(SegmentStore.ingest(spark, frames.limit(0), sfs, video).count() === 0L)
  }
}
