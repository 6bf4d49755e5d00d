package repro.store

import org.apache.spark.sql.DataFrame
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

  test("a catalog row is (video, segId, sfId, bytes)") {
    assert(stored.columns.toSeq === Seq("video", "segId", "sfId", "bytes"))
    assert(stored.collect().forall(_.video == video.name))
  }

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
    * collected frames grouped by segId.
    */
  private def referenceIngest(frames: DataFrame, sfs: Seq[StorageFormat],
                              video: VideoProfile): Seq[StoredSegment] = {
    import spark.implicits._
    frames.as[Frame].collect().toSeq.groupBy(_.segId).toSeq.flatMap { case (seg, fs) =>
      val segSec = fs.size.toDouble / SynthVideo.Fps
      val rel = math.max(0.25, math.min(4.0, fs.map(_.motion).sum / fs.size / video.motionFactor))
      sfs.zipWithIndex.map { case (sf, i) =>
        val scale = if (sf.coding.isRaw) 1.0 else rel
        StoredSegment(video.name, seg, i, CodecModel.storedBytesPerSec(sf, video) * segSec * scale)
      }
    }
  }

  test("ingest equals a driver-side reference, also with segments split across partitions") {
    // a whole-segment window, and clips whose last segment is partial
    val rawIdx = sfs.indexWhere(_.coding.isRaw)
    for (sec <- Seq(400, 1, 41, 123)) {
      val clip = SynthVideo.frames(spark, video, durationSec = sec).cache()
      val lastSeg = (sec - 1) / 8
      val layouts = Seq(
        s"$sec s" -> clip,
        s"$sec s, repartition(7)" -> clip.repartition(7),
        // every row starts a new run, and each segment arrives in one run per frame
        s"$sec s, one partition sorted by position in segment" ->
          clip.coalesce(1).sortWithinPartitions(col("frame") % SynthVideo.SegmentFrames))
      for ((where, table) <- layouts) {
        val rows = SegmentStore.ingest(spark, table, sfs, video).collect()
        val got = rows.map(s => (s.video, s.segId, s.sfId) -> s).toMap
        val want = referenceIngest(table, sfs, video).map(s => (s.video, s.segId, s.sfId) -> s).toMap
        assert(rows.length === want.size, s"$where: one row per (segment, format)")
        assert(got.keySet === want.keySet, where)
        assert(rows.map(_.segId).distinct.sorted.toSeq === (0 to lastSeg).map(_.toLong), where)
        def rel(a: Double, b: Double) = math.abs(a - b) / math.max(math.abs(b), 1e-300)
        want.foreach { case (k, w) =>
          val g = got(k)
          assert(rel(g.bytes, w.bytes) < 1e-9, s"$where $k bytes ${g.bytes} vs ${w.bytes}")
        }
        // the last segment holds the clip's remaining seconds; RAW size is content-independent
        val lastRaw = got((video.name, lastSeg.toLong, rawIdx)).bytes
        val rawWant = CodecModel.storedBytesPerSec(sfs(rawIdx), video) * (sec - 8 * lastSeg)
        assert(rel(lastRaw, rawWant) < 1e-9, s"$where: last RAW segment $lastRaw vs $rawWant")
      }
      clip.unpersist()
    }
  }

  test("ingesting a table of two streams fails naming the segment and the one-stream rule") {
    // two 1 s clips: each segment holds at most 240 frames, but not one run of them
    for ((sec, segment) <- Seq(16 -> "segment 0 has 480 frames",
                               1 -> "segment 0 has 60 frames numbered 0 to 29")) {
      val union = SynthVideo.frames(spark, VideoProfile.jackson, sec)
        .unionByName(SynthVideo.frames(spark, VideoProfile.dashcam, sec))
      val e = intercept[IllegalArgumentException](SegmentStore.ingest(spark, union, sfs, video))
      assert(e.getMessage.contains(segment), e.getMessage)
      assert(e.getMessage.contains("one stream"), e.getMessage)
    }
  }

  test("erode and bytesByFormat reject a catalog that is not driver-local") {
    implicit val s = spark
    import spark.implicits._
    val distributed = spark.createDataset(spark.sparkContext.parallelize(stored.collect().toSeq))
    val errors = Seq(
      intercept[IllegalArgumentException](SegmentStore.erode(distributed, 0, 0.4)),
      intercept[IllegalArgumentException](SegmentStore.bytesByFormat(distributed)))
    errors.foreach(e => assert(e.getMessage.contains("catalog is not driver-local"), e.getMessage))
  }

  test("ingest is one job with no shuffle; erode runs no job on a local catalog") {
    implicit val s = spark
    frames.count() // materialise the cache outside the measured window
    stored.count()
    val (jobs, shuffleBytes, _) = sparkActivity(SegmentStore.ingest(spark, frames, sfs, video))
    assert((jobs, shuffleBytes) === ((1, 0L)))
    // not `stored`'s rows: a plan equal to a cached one reads the cache
    val local = SegmentStore.ingest(spark, SynthVideo.frames(spark, VideoProfile.dashcam, 40),
      sfs, VideoProfile.dashcam)
    assert(sparkActivity(SegmentStore.erode(local, 0, 0.4).collect())._1 === 0)
    assert(sparkActivity(SegmentStore.erode(stored, 0, 0.4).collect())._2 === 0L)
    assert(sparkActivity(SegmentStore.bytesByFormat(local))._1 === 0)
    assert(sparkActivity(SegmentStore.bytesByFormat(stored))._2 === 0L)
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
