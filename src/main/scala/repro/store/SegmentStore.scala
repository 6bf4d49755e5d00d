package repro.store

import scala.annotation.unused
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, Predicate}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LocalRelation, LogicalPlan}
import org.apache.spark.sql.functions._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}

/** Spark-backed segment store: the LMDB substitute (DESIGN.md).
  *
  * Ingestion transcodes each 8-second segment of the incoming stream into
  * every storage format of the configuration (§5). One Spark job, `runJob`
  * over the physical plan's (segId, frame, motion) rows
  * (`queryExecution.toRdd`, read by ordinal, so no encoder or per-frame
  * object is built), streams one stream's frames once and returns, per
  * partition, each segment's frame count, motion sum and frame range; the
  * driver merges the partials of segments split across partitions and
  * applies the codec model to each segment under each storage format,
  * emitting one catalog row per (segment, format) with its stored size. The
  * catalog is per-segment metadata, so it is returned as a driver-local
  * Dataset. The task function is a named class, [[SegmentPartials]], for
  * the reason given at `QueryEngine`: Spark's closure cleaner returns at
  * once for it.
  *
  * Erosion (§4.4) deletes whole segments of one format by age, a catalog
  * operation, and the per-format totals are sums over the catalog. Both read
  * the rows of a driver-local catalog on the driver, with no Catalyst
  * planning and no Spark job: the local relation that `ingest` (or
  * `createDataset` over a `Seq`) builds, under the filters of earlier
  * erosions. Any other catalog is rejected.
  */
object SegmentStore {

  /** One stored-segment catalog row. `sfId` indexes into the configuration's
    * storage-format list; the size is in bytes.
    */
  final case class StoredSegment(video: String, segId: Long, sfId: Int, bytes: Double)

  /** Ingest: transcode `frames`, the frame table of the stream `video`,
    * into each storage format.
    *
    * Eager: the one Spark job over `frames` runs when `ingest` is called, and
    * the returned catalog is a local Dataset, sorted by (segId, sfId). A
    * table of several streams fails: a segment must hold consecutive frames
    * of its own 8 seconds, each once.
    *
    * The per-segment motion level modulates encoded size the way content
    * complexity does for x264 (heavier motion compresses worse), so each
    * segment's size is derived from its actual frame data, not just the
    * dataset-level profile.
    */
  def ingest(spark: SparkSession, frames: DataFrame, sfs: Seq[StorageFormat],
             video: VideoProfile): Dataset[StoredSegment] = {
    require(sfs.nonEmpty, "ingest: the configuration has no storage formats")
    val rows = frames.select("segId", "frame", "motion").queryExecution.toRdd
    val partials = spark.sparkContext.runJob(rows, new SegmentPartials, rows.partitions.indices).flatten
    val segments = partials.groupMapReduce(_.segId)(identity)(_ merge _)
    val perSec = sfs.map(CodecModel.storedBytesPerSec(_, video))
    val catalog = segments.toSeq.sortBy(_._1).flatMap { case (seg, p) =>
      val n = p.frames
      val (lo, hi) = (seg * SynthVideo.SegmentFrames, (seg + 1) * SynthVideo.SegmentFrames)
      require(n == p.last - p.first + 1 && p.first >= lo && p.last < hi,
        s"ingest: segment $seg has $n frames numbered ${p.first} to ${p.last}, not $n consecutive " +
          s"frames of $lo until $hi; a frame table must hold one stream")
      val segSec = n.toDouble / SynthVideo.Fps
      // mean motion of this segment relative to the dataset mean (1.0)
      val rel = math.max(0.25, math.min(4.0, p.motion / n / video.motionFactor))
      sfs.indices.map { i =>
        // raw size is content-independent
        val scale = if (sfs(i).coding.isRaw) 1.0 else rel
        StoredSegment(video.name, seg, i, perSec(i) * segSec * scale)
      }
    }
    spark.createDataset(catalog)(storedSegmentEncoder)
  }

  /** The catalog row encoder, derived by reflection once. */
  private val storedSegmentEncoder = Encoders.product[StoredSegment]

  /** The (segId, sfId, bytes) of each row of a driver-local catalog, in row
    * order: the rows of its local relation that pass every filter above it.
    * Each condition is evaluated with Catalyst's `Predicate`, as the
    * optimizer's `ConvertToLocalRelation` does, but nothing is planned.
    */
  private def localRows(stored: Dataset[StoredSegment]): Seq[(Long, Int, Double)] = {
    def rows(plan: LogicalPlan): (Seq[Attribute], Seq[InternalRow]) = plan match {
      case r: LocalRelation => (r.output, r.data)
      case Filter(condition, child) =>
        val (output, data) = rows(child)
        val keep = Predicate.create(condition, output)
        keep.initialize(0)
        (output, data.filter(keep.eval))
      case other => throw new IllegalArgumentException(s"catalog is not driver-local: " +
        s"expected a local relation under filters, found ${other.nodeName}")
    }
    val (output, data) = rows(stored.queryExecution.analyzed)
    val Seq(seg, sf, bytes) = Seq("segId", "sfId", "bytes").map(c => output.indexWhere(_.name == c))
    data.map(r => (r.getLong(seg), r.getInt(sf), r.getDouble(bytes)))
  }

  /** Total stored bytes per storage format id of a driver-local catalog. */
  def bytesByFormat(stored: Dataset[StoredSegment]): Map[Int, Double] =
    localRows(stored).groupMapReduce(_._2)(_._3)(_ + _)

  /** Apply an erosion plan to a driver-local catalog: drop `deleteFraction`
    * of segments (oldest-id first, deterministically) for the given format.
    * The fraction counts distinct segment ids of that format across every
    * video, and the round(n * fraction) smallest go. Returns the surviving
    * catalog, itself driver-local.
    *
    * `spark` is unused: ROADMAP item 5 (a driver-side catalog type) drops it
    * when it edits perfbench's call site.
    */
  def erode(stored: Dataset[StoredSegment], sfId: Int, deleteFraction: Double)
           (implicit @unused spark: SparkSession): Dataset[StoredSegment] = {
    require(deleteFraction >= 0.0 && deleteFraction <= 1.0,
      s"erode: deleteFraction $deleteFraction is outside [0, 1]")
    val ids = localRows(stored).collect { case (seg, `sfId`, _) => seg }.distinct.sorted
    val nDelete = math.round(ids.length * deleteFraction).toInt
    if (nDelete == 0) stored
    else stored.filter(col("sfId") =!= sfId || col("segId") > ids(nDelete - 1))
  }
}

/** One partition's share of a segment in [[SegmentStore.ingest]]: its frame
  * count, motion sum and lowest and highest frame number.
  */
private[store] final case class SegmentPartial(segId: Long, frames: Int, motion: Double,
                                               first: Long, last: Long) {
  /** The two shares of one segment as one. */
  def merge(o: SegmentPartial): SegmentPartial =
    SegmentPartial(segId, frames + o.frames, motion + o.motion,
      math.min(first, o.first), math.max(last, o.last))
}

/** [[SegmentStore.ingest]]'s task: over rows of (segId, frame, motion), one
  * partition's [[SegmentPartial]] per segment; a segment that straddles
  * partitions yields one partial in each. It keeps a running total for the
  * current segment and touches the map only when the segment changes, which
  * in the frame table's segment order is once per segment. A named class,
  * not a lambda, so that Spark's closure cleaner skips it.
  */
private[store] final class SegmentPartials
    extends ((TaskContext, Iterator[InternalRow]) => Array[SegmentPartial]) with Serializable {
  def apply(task: TaskContext, rows: Iterator[InternalRow]): Array[SegmentPartial] = {
    var acc = Map.empty[Long, SegmentPartial]
    // the current run
    var seg = 0L
    var n = 0
    var motion = 0.0
    var first = 0L
    var last = 0L
    def flush(): Unit = if (n > 0) {
      val run = SegmentPartial(seg, n, motion, first, last)
      acc = acc.updated(seg, acc.get(seg).fold(run)(_ merge run))
    }
    rows.foreach { r =>
      val frame = r.getLong(1)
      if (n == 0 || r.getLong(0) != seg) {
        flush()
        seg = r.getLong(0)
        n = 0
        motion = 0.0
        first = frame
        last = frame
      }
      n += 1
      motion += r.getDouble(2)
      first = math.min(first, frame)
      last = math.max(last, frame)
    }
    flush()
    acc.valuesIterator.toArray
  }
}
