package repro.video

import org.apache.spark.sql.functions._
import repro.SparkSpec

class SynthVideoSpec extends SparkSpec {

  private lazy val df = SynthVideo.frames(spark, VideoProfile.jackson, durationSec = 40).cache()

  test("the frame table has exactly the columns its readers select") {
    assert(df.columns.toSeq === Seq("segId", "frame", "isEvent", "motion"))
  }

  test("generates fps x duration frames") {
    assert(df.count() === 40L * 30)
  }

  test("segments are 8 seconds = 240 frames (§5)") {
    assert(SynthVideo.SegmentFrames === 240)
    val sizes = df.groupBy("segId").count().collect().map(_.getLong(1))
    assert(sizes.forall(_ === 240L))
    assert(sizes.length === 5) // 40 s / 8 s
  }

  test("segment s holds frames 240s until 240(s + 1)") {
    val r = df.groupBy("segId").agg(min("frame"), max("frame")).collect()
    assert(r.length === 5)
    r.foreach { row =>
      val s = row.getLong(0)
      assert((row.getLong(1), row.getLong(2)) === ((240 * s, 240 * s + 239)), s"segment $s")
    }
  }

  test("generation is deterministic in (video, duration)") {
    val a = SynthVideo.frames(spark, VideoProfile.jackson, 10).collect().map(_.toString).sorted
    val b = SynthVideo.frames(spark, VideoProfile.jackson, 10).collect().map(_.toString).sorted
    assert(a.toSeq === b.toSeq)
  }

  test("different videos get different content") {
    val a = SynthVideo.frames(spark, VideoProfile.jackson, 10)
      .agg(sum(when(col("isEvent"), 1).otherwise(0))).collect().head.getLong(0)
    val b = SynthVideo.frames(spark, VideoProfile.park, 10)
      .agg(sum(when(col("isEvent"), 1).otherwise(0))).collect().head.getLong(0)
    assert(a !== b)
  }

  test("event rate concentrates near the profile's rate") {
    val v = VideoProfile.jackson
    val big = SynthVideo.frames(spark, v, 120)
    val rate = big.agg(avg(when(col("isEvent"), 1.0).otherwise(0.0))).collect().head.getDouble(0)
    assert(math.abs(rate - v.eventRate) < 0.04, s"rate=$rate want ~${v.eventRate}")
  }

  test("the motion draw, motion / (2 x motionFactor), is uniform-ish in [0,1)") {
    val u = col("motion") / (2.0 * VideoProfile.jackson.motionFactor)
    val r = df.agg(min(u), max(u), avg(u)).collect().head
    assert(r.getDouble(0) >= 0.0 && r.getDouble(1) < 1.0)
    assert(math.abs(r.getDouble(2) - 0.5) < 0.05)
  }

  test("motion scales with the profile's motion factor") {
    val j = SynthVideo.frames(spark, VideoProfile.jackson, 40)
      .agg(avg("motion")).collect().head.getDouble(0)
    val d = SynthVideo.frames(spark, VideoProfile.dashcam, 40)
      .agg(avg("motion")).collect().head.getDouble(0)
    assert(math.abs(j - VideoProfile.jackson.motionFactor) < 0.1)
    assert(math.abs(d - VideoProfile.dashcam.motionFactor) < 0.35)
  }

  test("multi-video union stacks all streams") {
    val u = SynthVideo.frames(spark, VideoProfile.jackson, 8)
      .unionByName(SynthVideo.frames(spark, VideoProfile.miami, 8))
    assert(u.count() === 2L * 8 * 30)
    // each stream numbers its frames from 0, so every frame number appears twice
    assert(u.groupBy("frame").count().filter(col("count") =!= 2).count() === 0)
  }

  test("u01Scala is deterministic and in [0,1)") {
    val xs = (0 until 2000).map(i => SynthVideo.u01Scala("v", i.toLong, "s"))
    assert(xs === (0 until 2000).map(i => SynthVideo.u01Scala("v", i.toLong, "s")))
    assert(xs.forall(x => x >= 0.0 && x < 1.0))
    assert(math.abs(xs.sum / xs.size - 0.5) < 0.05)
  }

  test("u01Scala varies across salts") {
    val a = (0 until 100).map(i => SynthVideo.u01Scala("v", i.toLong, "a"))
    val b = (0 until 100).map(i => SynthVideo.u01Scala("v", i.toLong, "b"))
    assert(a !== b)
  }

  test("U01Draw equals u01Scala bit for bit on every video and detection salt") {
    val salts = OperatorModel.all.map(op => s"detect-${op.name}")
    val frames = (0L until 200000L) ++ Seq(9876543210123L, Long.MaxValue, -1L, Long.MinValue)
    for (v <- VideoProfile.all; salt <- salts) {
      val draw = new SynthVideo.U01Draw(v.name, salt)
      val bad = frames.find(fr => draw(fr) != SynthVideo.u01Scala(v.name, fr, salt))
      assert(bad.isEmpty, s"${v.name}/$salt: frame $bad")
    }
  }

  test("frame count column matches DuckDB oracle over the same table") {
    val perSeg = df.groupBy("segId").agg(count(lit(1)) as "n")
    repro.Oracle.assertEquivalent(
      perSeg,
      "SELECT segId, count(1) AS n FROM frames GROUP BY segId",
      "frames" -> df.select("segId"))
  }

  test("event counts per segment match DuckDB oracle") {
    val perSeg = df.groupBy("segId")
      .agg(sum(when(col("isEvent"), 1).otherwise(0)) as "events")
    repro.Oracle.assertEquivalent(
      perSeg,
      "SELECT segId, sum(CASE WHEN isEvent = 'true' THEN 1 ELSE 0 END) AS events " +
        "FROM frames GROUP BY segId",
      "frames" -> df.select("segId", "isEvent"))
  }
}
