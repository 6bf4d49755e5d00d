package repro.video

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats._
import repro.core.StorageConfig

/** Checks the codec model against the paper's calibration anchors (Fig. 3,
  * Fig. 4b, Table 2) and its structural invariants.
  */
class CodecModelSpec extends AnyFunSuite {
  private val v = VideoProfile.jackson
  private def enc(step: SpeedStep, kf: Int = 250) = Encoded(step, KeyframeInterval(kf))
  private val fullSlowest = StorageFormat(Fidelity.full, enc(SpeedStep.Slowest))

  test("speed steps span ~40x encoding speed (Fig 3a)") {
    val speeds = SpeedStep.all.map(s =>
      CodecModel.encodeSpeedPerCore(StorageFormat(Fidelity.full, enc(s)), v))
    val ratio = speeds.max / speeds.min
    assert(ratio > 30 && ratio < 55, s"ratio $ratio")
  }

  test("speed steps span ~2.5x encoded size (Fig 3a)") {
    val sizes = SpeedStep.all.map(s =>
      CodecModel.storedBytesPerSec(StorageFormat(Fidelity.full, enc(s)), v))
    val ratio = sizes.max / sizes.min
    assert(math.abs(ratio - 2.5) < 0.3, s"ratio $ratio")
  }

  test("encoding speed is monotone in speed step") {
    val speeds = SpeedStep.all.map(s =>
      CodecModel.encodeSpeedPerCore(StorageFormat(Fidelity.full, enc(s)), v))
    assert(speeds === speeds.sorted)
  }

  test("encoded size is monotone in speed step") {
    val sizes = SpeedStep.all.map(s =>
      CodecModel.storedBytesPerSec(StorageFormat(Fidelity.full, enc(s)), v))
    assert(sizes === sizes.sorted)
  }

  test("smaller keyframe interval inflates size, keeps encode speed (Fig 3b)") {
    val sizes = KeyframeInterval.values.map(k =>
      CodecModel.storedBytesPerSec(StorageFormat(Fidelity.full, enc(SpeedStep.Med, k)), v))
    assert(sizes === sizes.sorted.reverse.reverse.sortBy(identity).reverse || sizes == sizes,
      "computed") // explicit monotonicity below
    assert(sizes.zip(sizes.tail).forall { case (a, b) => a >= b },
      s"size must fall as interval grows: $sizes")
    val encs = KeyframeInterval.values.map(k =>
      CodecModel.encodeSpeedPerCore(StorageFormat(Fidelity.full, enc(SpeedStep.Med, k)), v))
    assert(encs.distinct.size === 1, "keyframe interval must not affect encoding speed")
  }

  test("one quality step changes storage ~5x between best and good (Fig 4b)") {
    val best = CodecModel.storedBytesPerSec(fullSlowest, v)
    val good = CodecModel.storedBytesPerSec(
      StorageFormat(Fidelity.full.copy(quality = ImageQuality.Good), enc(SpeedStep.Slowest)), v)
    assert(math.abs(best / good - 5.0) < 0.5, s"ratio ${best / good}")
  }

  test("golden format size ~1.3-1.4 MB/s as in Table 2 (1393 KB/s)") {
    val b = CodecModel.storedBytesPerSec(fullSlowest, v)
    assert(b > 1.0e6 && b < 1.8e6, s"$b B/s")
  }

  test("golden format decodes at ~23x realtime (Table 2)") {
    val sp = CodecModel.retrievalSpeed(fullSlowest, 30.0)
    assert(sp > 18 && sp < 28, s"${sp}x")
  }

  test("coding shrinks raw size by 1-2 orders of magnitude") {
    val raw = Fidelity.full.rawBytesPerSec
    val encSize = CodecModel.storedBytesPerSec(fullSlowest, v)
    val ratio = raw / encSize
    assert(ratio > 10 && ratio < 200, s"compression x$ratio")
  }

  test("raw 200p30 stores ~2 MB/s (Table 2 SF3: 1843 KB/s)") {
    val f200 = Fidelity(ImageQuality.Best, CropFactor.C100,
      Resolution.ten.find(_.height == 200).get, FrameSampling.S1)
    val b = CodecModel.storedBytesPerSec(StorageFormat(f200, Raw), v)
    assert(b > 1.5e6 && b < 2.7e6, s"$b")
  }

  test("raw retrieval spans a wide range across sampling rates (Table 2 SF3)") {
    val f200 = Fidelity(ImageQuality.Best, CropFactor.C100,
      Resolution.ten.find(_.height == 200).get, FrameSampling.S1)
    val sf = StorageFormat(f200, Raw)
    val fullScan = CodecModel.retrievalSpeed(sf, 30.0)
    val sparse = CodecModel.retrievalSpeed(sf, 1.0)
    assert(fullScan > 700 && fullScan < 1300, s"$fullScan")
    assert(sparse / fullScan > 25 && sparse / fullScan < 35, s"${sparse / fullScan}")
  }

  test("chunk skipping accelerates sparse decoding up to ~6x (Fig 3b)") {
    val f = Fidelity.full
    val noSkip = CodecModel.retrievalSpeed(StorageFormat(f, enc(SpeedStep.Med, 250)), 1.0)
    val skip = CodecModel.retrievalSpeed(StorageFormat(f, enc(SpeedStep.Med, 5)), 1.0)
    assert(skip / noSkip > 3 && skip / noSkip < 12, s"x${skip / noSkip}")
  }

  test("no chunk skipping when sampling interval <= keyframe interval") {
    assert(CodecModel.framesDecodedPerVideoSec(30, 30, KeyframeInterval(50)) === 30.0)
    assert(CodecModel.framesDecodedPerVideoSec(30, 1, KeyframeInterval(50)) === 30.0)
    // interval 30 frames > kf 10: skip
    assert(CodecModel.framesDecodedPerVideoSec(30, 1, KeyframeInterval(10)) === 5.5)
  }

  test("framesDecodedPerVideoSec rejects oversampling consumers") {
    assertThrows[IllegalArgumentException](
      CodecModel.framesDecodedPerVideoSec(1.0, 30.0, KeyframeInterval(10)))
  }

  test("decode speed is monotone in speed step") {
    val sp = SpeedStep.all.map(s => CodecModel.retrievalSpeed(StorageFormat(Fidelity.full, enc(s)), 30))
    assert(sp === sp.sorted)
  }

  test("retrieval speed decreases with richer fidelity (encoded)") {
    val f540 = Fidelity(ImageQuality.Best, CropFactor.C100,
      Resolution.ten.find(_.height == 540).get, FrameSampling.S1)
    val s540 = CodecModel.retrievalSpeed(StorageFormat(f540, enc(SpeedStep.Slowest)), 30)
    val s720 = CodecModel.retrievalSpeed(fullSlowest, 30)
    assert(s540 > s720)
  }

  test("RAW bypass has zero encoder cost relative to encoding") {
    val raw = CodecModel.ingestCores(StorageFormat(Fidelity.full, Raw), v)
    val encoded = CodecModel.ingestCores(fullSlowest, v)
    assert(raw < encoded / 50, s"raw=$raw encoded=$encoded")
  }

  test("heavy motion (dashcam) inflates encoded size ~3x vs jackson (Fig 11b)") {
    val j = CodecModel.storedBytesPerSec(fullSlowest, VideoProfile.jackson)
    val d = CodecModel.storedBytesPerSec(fullSlowest, VideoProfile.dashcam)
    assert(d / j > 2.5 && d / j < 4.0, s"x${d / j}")
  }

  test("motion does not change RAW size") {
    val sf = StorageFormat(Fidelity.full, Raw)
    assert(CodecModel.storedBytesPerSec(sf, VideoProfile.jackson) ===
      CodecModel.storedBytesPerSec(sf, VideoProfile.dashcam))
  }

  test("ingest cores for a set is the sum over formats") {
    val sfs = Seq(fullSlowest, StorageFormat(Fidelity.full, Raw))
    val total = CodecModel.ingestCores(sfs, v)
    assert(math.abs(total - sfs.map(CodecModel.ingestCores(_, v)).sum) < 1e-12)
  }

  test("unconstrained four-format ingest lands near the Table 3 anchor (~8 cores)") {
    val cfg = repro.core.VStoreConfigurator.derive()
    val cores = CodecModel.ingestCores(cfg.sfs, v)
    assert(cores > 5 && cores < 12, s"$cores cores")
  }

  test("sparser stored sampling inflates per-frame compressed size") {
    val f1 = Fidelity.full
    val f130 = Fidelity.full.copy(sampling = FrameSampling.S1_30)
    val b1 = CodecModel.storedBytesPerSec(StorageFormat(f1, enc(SpeedStep.Slowest)), v) / 30.0
    val b130 = CodecModel.storedBytesPerSec(StorageFormat(f130, enc(SpeedStep.Slowest)), v) / 1.0
    assert(b130 > b1, "per-frame bytes should grow with sparser sampling")
  }

  test("retrieval of a storage format at a CF uses the CF's sampling rate") {
    val sf = StorageFormat(Fidelity.full, enc(SpeedStep.Slowest, 5)) // a 1/30 sampler skips chunks
    val cf = ConsumptionFormat(Fidelity.full.copy(sampling = FrameSampling.S1_30))
    val atCf = CodecModel.retrievalSpeed(sf, 1.0)
    assert(atCf > CodecModel.retrievalSpeed(sf, 30.0))
    assert(StorageConfig.retrievalOk(sf, StorageConfig.Demand(cf, atCf)))
    assert(!StorageConfig.retrievalOk(sf, StorageConfig.Demand(cf, atCf * 1.001)))
  }
}
